"""Computes reference jobs in a process of its own.

    python3 perfbench/apart.py < jobs.pickle > results.pickle

Standard input holds a pickled list of (function, *args) jobs whose
functions live in this directory's modules; standard output receives the
pickled list of their results, in order. `checks.compute_apart` runs it.
"""

import pickle
import sys

sys.dont_write_bytecode = True


def main() -> int:
    jobs = pickle.load(sys.stdin.buffer)
    out = sys.stdout.buffer
    sys.stdout = sys.stderr  # nothing a solver prints may reach the pickle
    results = [fn(*args) for fn, *args in jobs]
    pickle.dump(results, out)
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
