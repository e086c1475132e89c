"""The benchmark's four workloads, one per project of the paper.

Each workload has four steps, each given the result of the one before:

* ``inputs(seed)``: the benchmark's own inputs (texts, sizes, seeds).
  Untimed.
* ``setup(inputs, step)``: the program's ready data from those inputs.
  Timed as ``setup_s``.
* ``references(inputs, ready)``: reference figures computed apart from
  bglab. Untimed.
* ``round(ready, step)``: one round of operations, the same in every
  round. Timed as ``ops_per_s``.

Both timed steps make every call into bglab through ``step(label, fn,
*args)``, which times the call under its label. A figure is the sum over
labels of the upper quartile of the times per label, so a change of the
host's speed moves only the few calls it overlaps.

``references`` runs its solvers (scipy) in a child process, so that they
never count in the measured process's peak RSS.

``check_setup(refs, ready)`` checks, untimed, that every set-up's parsed
instances hold exactly the rows they were made from;
``check(ready, refs, outputs)`` checks a round's outputs and raises
``checks.CheckFailure`` on a wrong one; ``count(refs, outputs)`` gives the
round's (operations, failed operations); ``replay(ready, refs, outputs)``
replays a sample through bglab's single-run functions once per run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import numpy as np

import checks
import inputs as gen
from locate import HERE, Refused

# The paper's random suite, (m_rows, n_cols, deg_min, deg_max), generated
# at the README's seed 7. The seed is fixed so that the proven optima can
# be kept in a reference file: HiGHS takes 2-29 s per shape.
M_SHAPES = [(100, 50, 10, 10), (100, 100, 10, 10), (100, 100, 10, 15),
            (100, 100, 10, 30), (100, 100, 30, 30), (200, 100, 10, 30),
            (200, 100, 30, 50)]
M_SEED = 7
OPTIMA_PATH = os.path.join(HERE, "reference", "optima.json")
SOLVERS = ("stoc", "iso")


def text_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_optima(path: str = OPTIMA_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def random_mode_seeds(meta_seed: int, count: int) -> list[int]:
    """Replica ids of a random-mode distribution run (Philox six-digit
    draws keyed by the meta seed)."""
    rng = np.random.Generator(np.random.Philox(meta_seed))
    return [int(s) for s in rng.integers(0, 10**6, size=count)]


def replay_replica(inst, solver: str, rid: int, rows: checks.RowDigest,
                   histogram: dict) -> None:
    """One replica through greedy_stoc / greedy_iso: it must cover every
    row, and its value must be in the distribution run's histogram."""
    from bglab import cover

    solve = {"stoc": cover.greedy_stoc, "iso": cover.greedy_iso}[solver]
    sol = solve(inst, rid)
    what = f"{inst.name} {solver} replica {rid}"
    checks.check_cover(rows, sol.coord, what)
    checks.check_support({sol.value: 1}, histogram, what)


class Workload:
    name = ""

    def __init__(self, workdir: str):
        self.workdir = workdir

    def check_setup(self, refs, ready) -> None:
        """Nothing parsed in set-up: the round's checks cover it."""

    def count(self, refs, outputs: list) -> tuple:
        """One operation per output, none failed."""
        return len(outputs), 0

    def replay(self, ready, refs, outputs) -> None:
        """Nothing to replay: every round's output is checked in full."""


class CoverSmall(Workload):
    """Replication on bitmask-path instances: school_9_11 at 10k seeds
    through `bglab dist`, two more bundled instances and the m* suite."""

    name = "cover_small"
    builtins = ("school_9_11", "school_5_5_ref", "chvatal_6_5")
    builtin_seeds = 2000
    m_seeds = 100
    cli_seeds = 10000

    def inputs(self, seed: int) -> dict:
        return {"meta_seed": seed,
                "dist_path": os.path.join(self.workdir, "school_9_11.cnfU")}

    def setup(self, inp: dict, step) -> dict:
        from bglab import generators, instances, library

        made = {name: step(f"builtin {name}", library.get_builtin, name)
                for name in self.builtins}
        for shape in M_SHAPES:
            inst = step(f"gen {shape}", generators.gen_random_instance,
                        *shape, seed=M_SEED)
            made[inst.name] = inst
        texts = {name: step(f"write {name}", instances.write_cnf, inst)
                 for name, inst in made.items()}
        parsed = {name: step(f"parse {name}", instances.parse_cnf, text,
                             name=name)
                  for name, text in texts.items()}
        with open(inp["dist_path"], "w") as fh:
            fh.write(texts["school_9_11"])
        return {"made": made, "texts": texts, "instances": parsed, **inp}

    def references(self, inp: dict, ready: dict) -> dict:
        """From the instances as made, before the write-parse round trip."""
        optima = load_optima()
        digests = {name: checks.RowDigest(inst.rows, inst.n_cols,
                                          inst.col_weights)
                   for name, inst in ready["made"].items()}
        proven = dict(zip(self.builtins, checks.compute_apart(
            [(checks.milp_optimum, digests[name])
             for name in self.builtins])))
        refs = {}
        for name, inst in ready["made"].items():
            digest = digests[name]
            ref = {"rows": digest, "mcd": digest.max_col_degree(),
                   "unit": inst.weight_kind == "unit"}
            if name in self.builtins:
                ref["optimum"] = proven[name]
                ref["exact"] = checks.exact_stoc_distribution(
                    inst.rows, inst.n_cols, inst.col_weights)
            else:
                key = text_hash(ready["texts"][name])
                entry = optima.get(key)
                if entry is None or entry["name"] != name:
                    raise Refused(
                        f"{OPTIMA_PATH} has no optimum for {name} "
                        f"(sha256 {key}); regenerate it with "
                        f"python3 perfbench/make_reference.py")
                ref["optimum"] = float(entry["optimum"])
            refs[name] = ref
        return refs

    def check_setup(self, refs: dict, ready: dict) -> None:
        for name, inst in ready["instances"].items():
            checks.check_same_instance(inst, refs[name]["rows"],
                                       f"parse_cnf(write_cnf({name}))")

    def _cli_dist(self, ready: dict, solver: str) -> tuple:
        from bglab import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(["dist", ready["dist_path"], "--solver", solver,
                               "--seeds", str(self.cli_seeds),
                               "--seed-mode", "random",
                               "--meta-seed", str(ready["meta_seed"]),
                               "--format", "json"])
        if status != 0:
            raise RuntimeError(f"bglab dist exited with status {status}")
        payload = json.loads(out.getvalue())
        histogram = {float(v): c for v, c in payload["histogram"].items()}
        return ("school_9_11", solver, self.cli_seeds, histogram,
                payload.get("bkv"))

    def round(self, ready: dict, step) -> list:
        from bglab import experiments

        outputs = [step(f"bglab dist {solver}", self._cli_dist, ready, solver)
                   for solver in SOLVERS]
        for name, inst in ready["instances"].items():
            if name == "school_9_11":
                continue
            seeds = self.builtin_seeds if name in self.builtins \
                else self.m_seeds
            for solver in SOLVERS:
                summary = step(f"{name} {solver}",
                               experiments.run_cover_distribution,
                               inst, seeds, solver, seed_mode="random",
                               meta_seed=ready["meta_seed"])
                outputs.append((name, solver, seeds,
                                summary.value_histogram, summary.bkv))
        return outputs

    def count(self, refs: dict, outputs: list) -> tuple:
        """A run whose attached BKV is not the proven optimum counts its
        replicas as failed: the registry attaches published values by
        file name, so the seed-7 m* instances get other instances' BKVs."""
        ops = failed = 0
        for name, _, seeds, _, bkv in outputs:
            ops += seeds
            if not checks.bkv_matches(bkv, refs[name]["optimum"]):
                failed += seeds
        return ops, failed

    def check(self, ready: dict, refs: dict, outputs: list) -> None:
        for name, solver, seeds, histogram, bkv in outputs:
            ref = refs[name]
            what = f"{name} {solver}"
            checks.check_histogram_total(histogram, seeds, what)
            checks.check_value_bounds(histogram, ref["optimum"], ref["mcd"],
                                      ref["unit"], what)
            if "exact" in ref:
                if solver == "stoc":
                    checks.check_exact_frequencies(histogram, ref["exact"],
                                                   what)
                else:
                    checks.check_support(histogram, ref["exact"], what)

    def replay(self, ready: dict, refs: dict, outputs: list) -> None:
        for name, solver, seeds, histogram, _ in outputs:
            ids = random_mode_seeds(ready["meta_seed"], seeds)
            for rid in (ids[0], ids[seeds // 2]):
                replay_replica(ready["instances"][name], solver, rid,
                               refs[name]["rows"], histogram)


class CoverOrlib(Workload):
    """Replication on OR-library-shaped instances at and above 300 x 3000,
    read by `ingest_orlib`, weighted and unit: the vectorized engine."""

    name = "cover_orlib"
    # (name, m_rows, n_cols, density): scpb-, scpc- and scpd-like shapes.
    shapes = (("scpb_like", 300, 3000, 0.05), ("scpc_like", 400, 4000, 0.02),
              ("scpd_like", 400, 4000, 0.05))
    seeds = 16

    def inputs(self, seed: int) -> dict:
        made = {}
        for stream, (name, m, n, density) in enumerate(self.shapes):
            made[name] = gen.orlib_instance(m, n, density, seed, stream)
        return {"seed": seed, "made": made}

    def setup(self, inp: dict, step) -> dict:
        from bglab import instances

        ready = {}
        for name, (text, _, _) in inp["made"].items():
            for unit in (False, True):
                key = name + ("_unit" if unit else "")
                ready[key] = step(key, instances.ingest_orlib, text,
                                  name=key, unit_weights=unit)
        return ready

    def references(self, inp: dict, ready: dict) -> dict:
        refs = {}
        for name, (_, rows, costs) in inp["made"].items():
            for unit in (False, True):
                digest = checks.RowDigest(
                    rows, costs.size, np.ones_like(costs) if unit else costs)
                refs[name + ("_unit" if unit else "")] = {
                    "rows": digest, "mcd": digest.max_col_degree(),
                    "unit": unit}
        bounds = checks.compute_apart([(checks.lp_bound, ref["rows"])
                                       for ref in refs.values()])
        for ref, lp in zip(refs.values(), bounds):
            ref["lp"] = lp
        refs["replica"] = 1 + inp["seed"] % self.seeds
        return refs

    def check_setup(self, refs: dict, ready: dict) -> None:
        for name, inst in ready.items():
            checks.check_same_instance(inst, refs[name]["rows"],
                                       f"ingest_orlib {name}")

    def round(self, ready: dict, step) -> list:
        from bglab import experiments

        outputs = []
        for name, inst in ready.items():
            for solver in SOLVERS:
                summary = step(f"{name} {solver}",
                               experiments.run_cover_distribution,
                               inst, self.seeds, solver)
                outputs.append((name, solver, summary.value_histogram,
                                summary.bkv))
        return outputs

    def count(self, refs: dict, outputs: list) -> tuple:
        return len(outputs) * self.seeds, 0

    def check(self, ready: dict, refs: dict, outputs: list) -> None:
        for name, solver, histogram, bkv in outputs:
            ref = refs[name]
            what = f"{name} {solver}"
            checks.check_histogram_total(histogram, self.seeds, what)
            checks.check_value_bounds(histogram, ref["lp"], ref["mcd"],
                                      ref["unit"], what)
            checks.fail_unless(bkv is None or bkv >= ref["lp"] * (1 - 1e-7),
                               f"{what}: attached BKV {bkv} below the LP "
                               f"bound {ref['lp']}")

    def replay(self, ready: dict, refs: dict, outputs: list) -> None:
        for name, solver, histogram, _ in outputs:
            replay_replica(ready[name], solver, refs["replica"],
                           refs[name]["rows"], histogram)


class MatchingSteiner(Workload):
    """max_matching on the AG(k,3) Steiner family (short augmenting paths,
    m >> n) and on a random instance of bench.matching_task (long paths).

    The random instance has 2^14 rows: at 2^15 its one solve takes 1.7 s
    and a run would time it only five or six times.
    """

    name = "matching_steiner"
    ks = (3, 4, 5, 6)
    random_rows = 2**14

    def inputs(self, seed: int) -> dict:
        return {"seed": seed,
                "steiner": [gen.steiner_instance(k, seed) for k in self.ks]}

    def setup(self, inp: dict, step) -> list:
        from bglab import bench, instances

        ready = [step(name, instances.parse_cnf, text, name=name)
                 for name, text, _ in inp["steiner"]]
        ready.append(step("random", bench.matching_task(inp["seed"]).read,
                          self.random_rows))
        return ready

    def references(self, inp: dict, ready: list) -> list:
        """Steiner rows from the benchmark's own arrays; the random
        instance as bglab generated it in the first set-up."""
        digests = [checks.RowDigest(rows, 3**k, np.ones(3**k))
                   for k, (_, _, rows) in zip(self.ks, inp["steiner"])]
        random = ready[-1]
        digests.append(checks.RowDigest(random.rows, random.n_cols,
                                        random.col_weights))
        sizes = checks.compute_apart([(checks.reference_matching_size, d)
                                      for d in digests])
        return [{"rows": digest, "size": size,
                 "all_columns": i < len(self.ks)}
                for i, (digest, size) in enumerate(zip(digests, sizes))]

    def check_setup(self, refs: list, ready: list) -> None:
        for inst, ref in zip(ready, refs):
            checks.check_same_instance(inst, ref["rows"], inst.name)

    def round(self, ready: list, step) -> list:
        from bglab import matching

        outputs = []
        for inst in ready:
            result = step(inst.name, matching.max_matching, inst)
            outputs.append((inst.name, result.size, result.pairs))
        return outputs

    def check(self, ready: list, refs: list, outputs: list) -> None:
        for inst, ref, (name, size, pairs) in zip(ready, refs, outputs):
            checks.fail_unless(size == len(pairs),
                               f"{name}: size {size} but {len(pairs)} pairs")
            checks.check_matching(pairs, ref["rows"], ref["size"],
                                  ref["all_columns"], name)


class TopkMovies(Workload):
    """Top-K over generated, written and re-read movie tables, with both
    aggregation strategies."""

    name = "topk_movies"
    # 2^16 rows keeps set-up plus a round near 1.6 s, so a run times each
    # step a dozen times; the paper's 2^20 takes ~25 s and 1.1 GB per pass.
    size = 2**16
    k = 10
    strategies = ("hash", "sorted")

    def inputs(self, seed: int) -> dict:
        return {"seed": seed,
                "paths": (os.path.join(self.workdir, "movies.csv"),
                          os.path.join(self.workdir, "watches.csv"))}

    def setup(self, inp: dict, step) -> tuple:
        from bglab import generators

        movies, watches = step("generate", generators.gen_movielib,
                               self.size, inp["seed"])
        step("write", generators.write_movielib, movies, watches,
             *inp["paths"])
        return inp["paths"]

    def references(self, inp: dict, ready: tuple) -> dict:
        counts = checks.recount_watches(ready[1])
        return {"counts": counts,
                "topk": checks.reference_topk(counts, self.k)}

    def round(self, ready: tuple, step) -> list:
        return [self._query(ready, strategy, step)
                for strategy in self.strategies]

    def _query(self, paths: tuple, strategy: str, step) -> tuple:
        """One query. The tables it reads are released when it returns,
        so the next query's read never runs beside them."""
        from bglab import bench, generators

        _, watches = step(f"read {strategy}", generators.read_movielib,
                          *paths)
        counts = step(f"count {strategy}", bench.watch_counts, watches,
                      strategy)
        top = step(f"select {strategy}", bench.select_topk, counts, self.k)
        histogram = step("histogram", bench.watch_histogram, watches) \
            if strategy == "hash" else None
        return strategy, counts, top.entries, histogram

    def check(self, ready, refs: dict, outputs: list) -> None:
        for strategy, counts, entries, histogram in outputs:
            what = f"top-{self.k} {strategy}"
            checks.check_counts(counts, refs["counts"], what)
            checks.check_topk(entries, refs["topk"], what)
            checks.check_distinct_fraction(counts, self.size, what)
            if histogram is not None:
                checks.check_watch_histogram(histogram, refs["counts"],
                                             self.size, what)
        checks.fail_unless(outputs[0][1] == outputs[1][1],
                           "hash and sorted counts differ")


WORKLOADS = {w.name: w for w in (CoverSmall, CoverOrlib, MatchingSteiner,
                                 TopkMovies)}
