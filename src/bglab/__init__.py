"""Workbench for bipartite-graph instances.

Covers the instance model with its text formats, maximum bipartite matching,
the greedy set-cover family with seeded stochastic variants and distribution
experiments, and a phase-split benchmark harness for top-K and urn tasks.
"""

from .bench import (PhaseTask, PhaseTiming, SweepResult, TopKResult,
                    asymptotic_sweep, select_topk, sweep_csv, time_phases,
                    topk_movies, topk_task, urn_task, watch_counts,
                    watch_histogram)
from .cover import (CoverSolution, HarmonicBound, brute_force_cover,
                    chvatal_upper_bound, cover_value,
                    enumerate_achievable_solutions,
                    enumerate_achievable_values, greedy_basic, greedy_iso,
                    greedy_stoc, harmonic, harmonic_bound, verify_cover)
from .experiments import (BkvRegistry, DistributionSummary, Stats,
                          converge_check, default_registry, ratio_bucket_report,
                          ratio_stats, ratio_string, run_cover_distribution,
                          stats_string, summary_rows)
from .generators import (ColumnPermutation, MovieRecord, MovieTable,
                         WatchRecord, WatchTable, gen_isomorph, gen_movielib,
                         gen_random_instance, isomorph_permutation,
                         permute_columns, read_movielib, seeded_rng,
                         urn_trial, write_movielib)
from .instances import (BigraphInstance, InstanceStats, ParseError,
                        UnateRequiredError, compute_stats, ingest_orlib,
                        parse_cnf, to_incidence_matrix, write_cnf)
from .library import BUILTIN_INSTANCES, get_builtin
from .matching import MatchingResult, brute_force_matching, max_matching

__version__ = "0.1.0"
