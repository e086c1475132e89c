"""In-memory spans around bglab's layer functions, for traced runs only.

`Recorder.install` replaces the module and class attributes through which
bglab calls each layer with timing wrappers and `Recorder.uninstall` puts
the originals back. A span is (name, phase, start, end, parent); the phase
says which part of the benchmark run was active, so per-layer figures can
be given per set-up and per round of operations.
"""

from __future__ import annotations

import csv
import os
import time
from collections import defaultdict


def _edges(args, kwargs, result):
    return {"edges": args[0].num_edges, "matched": result.size}


def _literals(args, kwargs, result):
    return {"literals": result.num_edges}


def _picks(args, kwargs, result):
    return {"picks": result[1]}


def _file_bytes(first: int):
    def count(args, kwargs, result):
        return {"bytes": sum(os.path.getsize(p)
                             for p in args[first:first + 2])}
    return count


def _strategy_name(args, kwargs):
    strategy = kwargs.get("strategy", args[1] if len(args) > 1 else "hash")
    return f"bench.watch_counts.{strategy}"


def layer_targets():
    """(owner, attribute, span name, counter) for every traced layer.

    A function imported into several modules is wrapped at each binding
    the program calls it through.
    """
    from bglab import (bench, cli, cover, experiments, generators, instances,
                       matching)

    engine = cover._Engine
    return [
        (instances, "parse_cnf", "instances.parse_cnf", _literals),
        (instances, "ingest_orlib", "instances.ingest_orlib", None),
        (instances.BigraphInstance, "__post_init__",
         "instances.BigraphInstance", None),
        (generators, "gen_random_instance", "generators.gen_random_instance",
         None),
        (bench, "gen_random_instance", "generators.gen_random_instance",
         None),
        (cover, "seeded_rng", "generators.seeded_rng", None),
        (experiments, "seeded_rng", "generators.seeded_rng", None),
        (generators, "seeded_rng", "generators.seeded_rng", None),
        (experiments, "isomorph_permutation",
         "generators.isomorph_permutation", None),
        (engine, "__init__", "cover.engine_build", None),
        (engine, "permuted", "cover.engine_permuted", None),
        (engine, "_run_small", "cover.replica_small", _picks),
        (engine, "_run_vectorized", "cover.replica_vectorized", _picks),
        (experiments, "run_cover_distribution",
         "experiments.run_cover_distribution", None),
        (cli, "cmd_dist", "cli.dist", None),
        (matching, "max_matching", "matching.max_matching", _edges),
        (generators, "gen_movielib", "generators.gen_movielib", None),
        (generators, "write_movielib", "generators.write_movielib",
         _file_bytes(2)),
        (generators, "read_movielib", "generators.read_movielib",
         _file_bytes(0)),
        (bench, "watch_counts", _strategy_name, None),
        (bench, "select_topk", "bench.select_topk", None),
        (bench, "watch_histogram", "bench.watch_histogram", None),
    ]


# Counters whose totals are reported under a layer-level name.
_COUNTER_METRICS = {"cover.replica_small.picks": "cover.picks",
                    "cover.replica_vectorized.picks": "cover.picks"}


class Recorder:
    """Span and counter store for one traced benchmark run."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.phase = "setup"
        self._open: list[int] = []
        self._saved: list = []

    def _wrap(self, name, fn, counter):
        spans, open_spans, counts = self.spans, self._open, self.counts
        clock = time.perf_counter
        recorder = self

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                spans[index] = (label, recorder.phase, start, end, parent)
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    counts[recorder.phase, f"{label}.{key}"] += amount
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, name, counter in layer_targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, names, per_phase: dict[str, int]) -> dict:
        """Totals per unit of each phase, summed over the phases given.

        `names` are the metrics to report; a name is a span name with
        `.busy_s` (span time), `.self_s` (span time minus child spans),
        `.calls` (span count) or a counter's name, `cover.picks`, or
        `trace.spans`, and reads 0 where nothing was recorded.
        `per_phase` maps a phase name to how many times it ran, e.g.
        {"setup": 3, "round": 7} gives the cost of one set-up plus one
        round. Phases not listed (warm-up, checks) are left out.
        """
        child = [0.0] * len(self.spans)
        for label, phase, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict = defaultdict(float)
        for i, (label, phase, start, end, parent) in enumerate(self.spans):
            if phase in per_phase:
                totals[phase, f"{label}.busy_s"] += end - start
                totals[phase, f"{label}.self_s"] += end - start - child[i]
                totals[phase, f"{label}.calls"] += 1
                totals[phase, "trace.spans"] += 1
        for (phase, key), amount in self.counts.items():
            totals[phase, _COUNTER_METRICS.get(key, key)] += amount
        out = dict.fromkeys(names, 0.0)
        for (phase, name), amount in totals.items():
            if name in out and phase in per_phase:
                out[name] += amount / per_phase[phase]
        return out

    def write(self, path: str) -> None:
        """Write every span as one CSV row, times relative to the first."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("span", "parent", "name", "phase", "start_s",
                          "end_s"))
            for i, (label, phase, start, end, parent) in \
                    enumerate(self.spans):
                out.writerow((i, parent, label, phase,
                              f"{start - origin:.9f}", f"{end - origin:.9f}"))
