"""Recompute perfbench/reference/optima.json: proven optima of the m* suite.

    python3 perfbench/make_reference.py

Generates each m* shape with bglab's gen_random_instance at seed 7, solves
the covering integer program with HiGHS (scipy.optimize.milp, zero gap) and
keys the optimum by the sha256 of the instance's canonical write_cnf text,
so the benchmark can refuse an optimum that belongs to another instance.
Takes one to two minutes.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.dont_write_bytecode = True

from locate import import_bglab


def main() -> int:
    import_bglab()
    from bglab import generators, instances

    import checks
    from workloads import M_SEED, M_SHAPES, OPTIMA_PATH, text_hash

    optima = {}
    for shape in M_SHAPES:
        inst = generators.gen_random_instance(*shape, seed=M_SEED)
        start = time.perf_counter()
        optimum = checks.milp_optimum(
            checks.RowDigest(inst.rows, inst.n_cols, inst.col_weights))
        print(f"{inst.name}: optimum {optimum:.6f} "
              f"({time.perf_counter() - start:.1f} s)", flush=True)
        optima[text_hash(instances.write_cnf(inst))] = {
            "name": inst.name, "optimum": round(optimum),
            "made_by": f"gen_random_instance{shape[:4]} seed {M_SEED}, "
                       f"scipy.optimize.milp (HiGHS), mip_rel_gap 0"}
    os.makedirs(os.path.dirname(OPTIMA_PATH), exist_ok=True)
    with open(OPTIMA_PATH, "w") as fh:
        json.dump(optima, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
