"""Command-line workbench.

Subcommands: stats, match, cover, dist, converge, ub, gen, iso, urn,
movielib, topk, hist, bench. Every command but gen, iso and movielib hands
its records to `_output`, which writes plain table text, CSV or JSON to
stdout or --out; gen and iso write a clause file to stdout or --out and
take no --format, and movielib writes its two CSV files. Deterministic
commands produce byte-identical output for fixed seeds. Exit status is 0
on success and 2 on any error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile

from . import bench, cover, experiments, generators, instances, library
from .formatting import fmt_exact, fmt_fixed, fmt_number
from .matching import max_matching

FORMATS = ("table", "csv", "json")


def _load_instance(path: str, as_format: str = "auto",
                   unit_weights: bool = False) -> instances.BigraphInstance:
    stem, ext = os.path.splitext(os.path.basename(path))
    if as_format == "auto":
        as_format = "cnf" if ext.lower() in (".cnfu", ".cnfw") else "orlib"
    with open(path) as fh:
        text = fh.read()
    if as_format == "cnf":
        inst = instances.parse_cnf(text, name=stem)
        if unit_weights and inst.weight_kind == instances.WEIGHTED:
            inst = instances.BigraphInstance._trusted(
                **{**vars(inst), "col_weights": (1.0,) * inst.n_cols,
                   "weight_kind": instances.UNIT})
        return inst
    return instances.ingest_orlib(text, name=stem, unit_weights=unit_weights)


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _output(args, header: tuple[str, ...], rows: list[tuple],
            table: list[str] | None = None, payload=None) -> None:
    """The one exit for records: CSV writes the header and the rows, JSON
    writes `payload` or one object per row, and a table writes the `table`
    lines or each row joined by spaces."""
    if args.format == "csv":
        lines = [",".join(str(v) for v in row) for row in [header, *rows]]
    elif args.format == "json":
        if payload is None:
            payload = [dict(zip(header, row)) for row in rows]
        lines = [json.dumps(payload, indent=2)]
    else:
        lines = table if table is not None else [
            " ".join(str(v) for v in row) for row in rows]
    _emit(args, "\n".join(lines) + "\n")


def _parse_sizes(size_list: str) -> list[int]:
    """Size lists: '1024,4096', '2^10..2^20' (powers of two), or mixes."""

    def one(tok: str) -> int:
        tok = tok.strip()
        if tok.startswith("2^"):
            return 2 ** int(tok[2:])
        return int(tok)

    sizes: list[int] = []
    for part in size_list.split(","):
        part = part.strip()
        if ".." in part:
            lo_s, hi_s = part.split("..", 1)
            lo, hi = one(lo_s), one(hi_s)
            if not (lo > 0 and hi >= lo):
                raise ValueError(f"bad size range {part!r}")
            size = lo
            while size <= hi:
                sizes.append(size)
                size *= 2
        else:
            sizes.append(one(part))
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError(f"bad sizes {size_list!r}")
    return sizes


def cmd_stats(args) -> int:
    inst = _load_instance(args.path, args.as_format, args.unit)
    st = instances.compute_stats(inst)
    row = (inst.name, st.n_cols, st.m_rows, fmt_fixed(st.m_dens, 4), st.m_cd)
    _output(args, ("instance", "nCols", "mRows", "mDens", "mCD"), [row],
            [" ".join(str(v) for v in row[1:])])
    return 0


def cmd_match(args) -> int:
    inst = _load_instance(args.path, args.as_format, args.unit)
    result = max_matching(inst)
    row = (inst.name, result.size, fmt_fixed(result.m_p, 2))
    _output(args, ("instance", "size", "mP"), [row],
            [" ".join(str(v) for v in row[1:])])
    return 0


def cmd_cover(args) -> int:
    inst = _load_instance(args.path, args.as_format, args.unit)
    if args.solver == "basic":
        sol = cover.greedy_basic(inst, args.tie_tol)
    elif args.solver == "stoc":
        sol = cover.greedy_stoc(inst, args.replica, args.tie_tol)
    else:
        sol = cover.greedy_iso(inst, args.replica, args.tie_tol)
    coord = "".join(str(c) for c in sol.coord)
    header = ("instance", "solver", "replicaId", "value", "nOps", "coord")
    row = (inst.name, args.solver, sol.replica_id, fmt_number(sol.value),
           sol.n_ops, coord)
    _output(args, header, [row],
            [f"value {row[3]} nOps {sol.n_ops} coord {coord}"],
            {**dict(zip(header, row)), "value": sol.value})
    return 0


HISTOGRAM_HEADER = ("instance", "numSeeds", "value", "count")


def _histogram_lines(summary) -> list[str]:
    lines = []
    for value, count in sorted(summary.value_histogram.items()):
        if summary.bkv:
            ratio = fmt_fixed(round(value, 2) / summary.bkv, 2)
            lines.append(f"{fmt_number(value, 4)} {count} {ratio}")
        else:
            lines.append(f"{fmt_number(value, 4)} {count}")
    return lines


def _histogram_rows(summary) -> list[tuple]:
    return [(name, seeds, fmt_number(v, 9), c)
            for name, seeds, v, c in experiments.summary_rows(summary)]


def _histogram_json(summary) -> dict[str, int]:
    return {fmt_number(v, 9): c
            for v, c in sorted(summary.value_histogram.items())}


def cmd_dist(args) -> int:
    inst = _load_instance(args.path, args.as_format, args.unit)
    summary = experiments.run_cover_distribution(
        inst, args.seeds, solver=args.solver, seed_mode=args.seed_mode,
        bkv=args.bkv, meta_seed=args.meta_seed, tie_tol=args.tie_tol)
    values = experiments.stats_string(summary.stats)
    lines = [f"instance {summary.instance_name} seeds {summary.num_seeds} "
             f"solver {summary.solver}", f"values {values}"]
    payload = {"instance": summary.instance_name,
               "numSeeds": summary.num_seeds, "solver": summary.solver,
               "valueStats": values, "histogram": _histogram_json(summary)}
    if summary.bkv is not None:
        # run_cover_distribution has accepted this ratio, so it cannot raise
        ratios = experiments.ratio_string(summary.stats, summary.bkv)
        lines.append(f"ratios {ratios} (bkv {fmt_exact(summary.bkv)})")
        payload.update(bkv=summary.bkv, ratioStats=ratios)
    _output(args, HISTOGRAM_HEADER, _histogram_rows(summary),
            lines + ["histogram:"] + _histogram_lines(summary), payload)
    return 0


def cmd_converge(args) -> int:
    inst = _load_instance(args.path, args.as_format, args.unit)
    counts = [int(c) for c in args.counts.split(",")]
    summaries = experiments.converge_check(inst, counts, args.solver,
                                           seed_mode=args.seed_mode,
                                           bkv=args.bkv,
                                           meta_seed=args.meta_seed,
                                           tie_tol=args.tie_tol)
    rows, lines, payload = [], [], []
    for s in summaries:
        rows += _histogram_rows(s)
        lines += [f"num_seeds {s.num_seeds}"] + _histogram_lines(s)
        payload.append({"numSeeds": s.num_seeds,
                        "histogram": _histogram_json(s)})
    _output(args, HISTOGRAM_HEADER, rows, lines, payload)
    return 0


def cmd_ub(args) -> int:
    if args.path:
        if args.mcd is not None:
            raise ValueError("--mcd is read from the instance; "
                             "pass either a path or --mcd")
        inst = _load_instance(args.path, args.as_format, args.unit)
        m_cd = instances.compute_stats(inst).m_cd
        bkv = args.bkv
        if bkv is None:
            bkv = experiments.default_registry().lookup_instance(inst)
        if bkv is None:
            raise ValueError(f"{inst.name}: no bkv known; pass --bkv")
    else:
        if args.bkv is None or args.mcd is None:
            raise ValueError("need either a path or both --bkv and --mcd")
        bkv, m_cd = args.bkv, args.mcd
    bound = cover.harmonic_bound(bkv, m_cd)
    # two decimals, unless they would print a positive bound as 0
    ub = fmt_number(bound.ub) if round(bound.ub, 2) else repr(bound.ub)
    harmonic = fmt_number(bound.h_d, 3)
    _output(args, ("bkv", "mCD", "harmonic", "UB"),
            [(fmt_exact(bkv), bound.d, harmonic, ub)],
            [f"mCD {bound.d} harmonic {harmonic} UB {ub}"],
            {"bkv": bkv, "mCD": bound.d, "harmonic": bound.h_d,
             "UB": bound.ub})
    return 0


def cmd_gen(args) -> int:
    if args.kind == "random":
        if None in (args.m_rows, args.n_cols, args.deg_min, args.deg_max):
            raise ValueError("gen random needs M N DEGMIN DEGMAX")
        inst = generators.gen_random_instance(args.m_rows, args.n_cols,
                                              args.deg_min, args.deg_max,
                                              args.seed)
    else:
        if not args.name:
            raise ValueError("gen builtin needs --name")
        inst = library.get_builtin(args.name)
    _emit(args, instances.write_cnf(inst))
    return 0


def cmd_iso(args) -> int:
    inst = _load_instance(args.path, args.as_format, args.unit)
    iso, perm = generators.gen_isomorph(inst, args.replica)
    perm_text = ",".join(str(p) for p in perm)
    _emit(args, instances.write_cnf(
        iso, comments=(f"isomorph replica {args.replica} of {inst.name}",
                       f"permutation {perm_text}")))
    return 0


def cmd_urn(args) -> int:
    sizes = _parse_sizes(args.sizes)
    rows = []
    # one derived seed per row, else rows would share the generator stream
    for offset, size in enumerate(sizes):
        trials = args.trials if args.trials is not None else size
        frac = generators.urn_trial(size, trials, args.seed + offset)
        rows.append((size, trials, f"{frac:.6f}"))
    _output(args, ("size", "trials", "unique_fraction"), rows)
    return 0


def cmd_movielib(args) -> int:
    movies, watches = generators.gen_movielib(args.size, args.seed)
    generators.write_movielib(movies, watches, args.movies, args.watches)
    sys.stderr.write(f"wrote {len(movies)} movies to {args.movies}, "
                     f"{len(watches)} watches to {args.watches}\n")
    return 0


def _records_for(args):
    if args.movies or args.watches:
        if not (args.movies and args.watches):
            raise ValueError("--movies and --watches are read together")
        for option, value in (("--size", args.size), ("--seed", args.seed)):
            if value is not None:
                raise ValueError(f"{option} is not read with --movies and "
                                 "--watches")
        return generators.read_movielib(args.movies, args.watches)
    if args.size is None:
        raise ValueError("need --size or both --movies and --watches")
    return generators.gen_movielib(args.size, args.seed or 0)


def cmd_topk(args) -> int:
    movies, watches = _records_for(args)
    result = bench.topk_movies(movies, watches, args.k, args.strategy)
    _output(args, ("movieID", "watchCount"), list(result.entries))
    return 0


def cmd_hist(args) -> int:
    _, watches = _records_for(args)
    hist = bench.watch_histogram(watches)
    rows = [(idx, hist[idx]) for idx in sorted(hist)]
    _output(args, ("watchCount", "numMovies"), rows)
    return 0


def cmd_bench(args) -> int:
    sizes = _parse_sizes(args.sizes)
    with tempfile.TemporaryDirectory(prefix="bglab_topk_") as workdir:
        if args.task == "topk":
            task = bench.topk_task(k=args.k, seed=args.seed,
                                   strategy=args.strategy, workdir=workdir)
        elif args.task == "urn":
            task = bench.urn_task(seed=args.seed)
        else:
            task = bench.matching_task(seed=args.seed)
        sweep = bench.asymptotic_sweep(sizes, task, repetitions=args.reps)
    for size, message in sweep.failures.items():
        sys.stderr.write(f"size {size} failed: {message}\n")
    _output(args, ("size", "runtime_read", "runtime_solve", "label"),
            [(r.size_param, f"{r.runtime_read:.6f}", f"{r.runtime_solve:.6f}",
              r.label) for r in sweep.rows])
    return 0


def _add_common(parser, with_seed=False) -> None:
    parser.add_argument("--format", choices=FORMATS, default="table")
    parser.add_argument("--out", default=None, help="write output to a file")
    if with_seed:
        parser.add_argument("--seed", type=int, default=0)


def _add_instance_args(parser) -> None:
    parser.add_argument("path")
    parser.add_argument("--as", dest="as_format", default="auto",
                        choices=("auto", "cnf", "orlib"),
                        help="input format override")
    parser.add_argument("--unit", action="store_true",
                        help="override all column weights to 1.0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bglab",
        description="Bipartite-graph instance workbench: statistics, maximum "
                    "matchings, greedy set covers, distribution experiments, "
                    "and timing sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="instance statistics")
    _add_instance_args(p)
    _add_common(p)

    p = sub.add_parser("match", help="maximum bipartite matching")
    _add_instance_args(p)
    _add_common(p)

    p = sub.add_parser("cover", help="one greedy cover run")
    _add_instance_args(p)
    p.add_argument("--solver", choices=("basic", "stoc", "iso"),
                   default="basic")
    p.add_argument("--replica", type=int, default=0)
    p.add_argument("--tie-tol", type=float, default=0.0)
    _add_common(p)

    for name, help_text, count_flag, count_default in (
            ("dist", "seeded cover distribution", "--seeds", 1000),
            ("converge", "histograms at growing seed counts", "--counts",
             "100,1000,10000")):
        p = sub.add_parser(name, help=help_text)
        _add_instance_args(p)
        p.add_argument("--solver", choices=experiments.SOLVERS,
                       default="stoc")
        p.add_argument(count_flag, type=type(count_default),
                       default=count_default)
        p.add_argument("--seed-mode", choices=experiments.SEED_MODES,
                       default="consecutive")
        p.add_argument("--bkv", type=float, default=None)
        p.add_argument("--meta-seed", type=int, default=0)
        p.add_argument("--tie-tol", type=float, default=0.0)
        _add_common(p)

    p = sub.add_parser("ub", help="greedy upper bound from bkv and mCD")
    p.add_argument("path", nargs="?", default=None)
    p.add_argument("--as", dest="as_format", default="auto",
                   choices=("auto", "cnf", "orlib"))
    p.add_argument("--unit", action="store_true")
    p.add_argument("--bkv", type=float, default=None)
    p.add_argument("--mcd", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("gen", help="generate an instance")
    p.add_argument("kind", choices=("random", "builtin"))
    p.add_argument("m_rows", type=int, nargs="?", default=None)
    p.add_argument("n_cols", type=int, nargs="?", default=None)
    p.add_argument("deg_min", type=int, nargs="?", default=None)
    p.add_argument("deg_max", type=int, nargs="?", default=None)
    p.add_argument("--name", default=None, help="builtin instance name")
    p.add_argument("--out", default=None, help="write output to a file")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("iso", help="emit a column-permuted isomorph")
    _add_instance_args(p)
    p.add_argument("--replica", type=int, default=1)
    p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("urn", help="urn-model unique-fraction trials")
    p.add_argument("--sizes", default="2^10..2^20")
    p.add_argument("--trials", type=int, default=None,
                   help="trials per urn (default: urn size)")
    _add_common(p, with_seed=True)

    p = sub.add_parser("movielib", help="emit synthetic movie/watch tables")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--movies", default="movies.csv")
    p.add_argument("--watches", default="watches.csv")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("topk", help="most frequently watched movies")
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--movies", default=None)
    p.add_argument("--watches", default=None)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--strategy", choices=("hash", "sorted"), default="hash")
    # no default seed, so that one given with --movies and --watches is
    # refused; generation takes none as 0
    p.add_argument("--seed", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("hist", help="watch-frequency histogram")
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--movies", default=None)
    p.add_argument("--watches", default=None)
    p.add_argument("--seed", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("bench", help="phase-split asymptotic timing sweep")
    p.add_argument("--task", choices=("topk", "urn", "match"), default="topk")
    p.add_argument("--sizes", default="2^10..2^16")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--strategy", choices=("hash", "sorted"), default="hash")
    p.add_argument("--reps", type=int, default=1)
    _add_common(p, with_seed=True)
    p.set_defaults(format="csv")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process: parsing leaves it
    as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up at each call, so that a command function replaced in
        # this module after the parser was built is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError, RuntimeError) as exc:
        sys.stderr.write(f"bglab {args.command}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
