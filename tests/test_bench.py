import heapq
import operator
import random
import sys
import threading
from itertools import groupby

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bglab.bench import (PhaseTask, TopKResult, asymptotic_sweep, select_topk,
                         sweep_csv, time_phases, topk_movies, topk_task,
                         urn_task, matching_task, watch_counts,
                         watch_histogram)
from bglab import generators
from bglab.generators import (MovieRecord, WatchRecord, WatchTable,
                              gen_movielib, read_movielib, urn_trial,
                              write_movielib)


def micro_dataset():
    """Four movies, tt74 watched three times, tt30 once, two unwatched."""
    movies = [MovieRecord("tt74", "A", 2000, 100),
              MovieRecord("tt30", "B", 2001, 100),
              MovieRecord("tt55", "C", 2002, 100),
              MovieRecord("tt81", "D", 2003, 100)]
    watches = [WatchRecord("w1", "tt74", "2020-01-01", 30),
               WatchRecord("w2", "tt30", "2020-01-02", 40),
               WatchRecord("w3", "tt74", "2020-01-03", 50),
               WatchRecord("w4", "tt74", "2020-01-04", 60)]
    return movies, watches


def test_topk_micro_dataset():
    movies, watches = micro_dataset()
    assert topk_movies(movies, watches, 1).entries == (("tt74", 3),)
    assert topk_movies(movies, watches, 2).entries == (("tt74", 3),
                                                       ("tt30", 1))


def test_topk_empty_watches():
    movies, _ = micro_dataset()
    assert topk_movies(movies, [], 10).entries == ()


def test_topk_truncation_bound():
    movies, watches = micro_dataset()
    # k above the number of distinct watched movies returns all watched
    assert len(topk_movies(movies, watches, 99).entries) == 2


def test_topk_strategies_agree():
    movies, watches = gen_movielib(2000, seed=5)
    hashed = topk_movies(movies, watches, 10, "hash")
    table = topk_movies(movies, watches, 10, "sorted")
    assert hashed == table
    # independent recount
    counts = {}
    for w in watches:
        counts[w.movie_id] = counts.get(w.movie_id, 0) + 1
    for movie_id, count in hashed.entries:
        assert counts[movie_id] == count
    top = sorted(counts.values(), reverse=True)[:10]
    assert [c for _, c in hashed.entries] == top


def test_topk_tiebreak_ascending_id():
    movies = [MovieRecord(mid, "t", 2000, 90)
              for mid in ("tt9", "tt10", "tt2")]
    watches = [WatchRecord(f"w{i}", mid, "2020-01-01", 5)
               for i, mid in enumerate(["tt9", "tt10", "tt2"])]
    result = topk_movies(movies, watches, 3)
    assert result.entries == (("tt10", 1), ("tt2", 1), ("tt9", 1))


def test_topk_validation():
    movies, watches = micro_dataset()
    with pytest.raises(ValueError):
        topk_movies(movies, watches, 0)
    with pytest.raises(ValueError, match="unknown movie"):
        topk_movies(movies[:1], watches, 1)
    with pytest.raises(ValueError, match="strategy"):
        watch_counts(watches, "quantum")


def test_topk_result_invariants():
    with pytest.raises(ValueError, match="nonincreasing"):
        TopKResult(entries=(("a", 1), ("b", 2)))
    with pytest.raises(ValueError, match="distinct"):
        TopKResult(entries=(("a", 2), ("a", 1)))


def test_histogram_micro_dataset():
    _, watches = micro_dataset()
    assert watch_histogram(watches) == {1: 1, 3: 1}


def test_histogram_mass_conservation():
    _, watches = gen_movielib(3000, seed=6)
    hist = watch_histogram(watches)
    assert sum(i * count for i, count in hist.items()) == 3000
    assert all(i >= 1 for i in hist)


def test_time_phases_noop():
    task = PhaseTask(label="noop", read=lambda size: size,
                     solve=lambda data: data)
    timing, result = time_phases(task, 5)
    assert result == 5
    assert timing.label == "noop"
    assert timing.size_param == 5
    assert 0.0 <= timing.runtime_read < 1e-3
    assert 0.0 <= timing.runtime_solve < 1e-3


def test_time_phases_repetitions_deterministic():
    calls = []

    def solve(data):
        calls.append(data)
        return data * 2

    task = PhaseTask(label="t", read=lambda s: s, solve=solve)
    timing, result = time_phases(task, 3, repetitions=5)
    assert result == 6
    assert calls == [3] * 5
    _, again = time_phases(task, 3, repetitions=5)
    assert again == result


def test_time_phases_phase_attribution():
    def broken_read(size):
        raise OSError("nope")

    task = PhaseTask(label="r", read=broken_read, solve=lambda d: d)
    with pytest.raises(RuntimeError, match="read phase"):
        time_phases(task, 1)

    def broken_solve(data):
        raise ValueError("nope")

    task = PhaseTask(label="s", read=lambda s: s, solve=broken_solve)
    with pytest.raises(RuntimeError, match="solve phase"):
        time_phases(task, 1)


def test_time_phases_refuses_reentry():
    task_inner = PhaseTask(label="inner", read=lambda s: s,
                           solve=lambda d: d)

    def nested(size):
        return time_phases(task_inner, size)

    task = PhaseTask(label="outer", read=nested, solve=lambda d: d)
    with pytest.raises(RuntimeError, match="already running"):
        time_phases(task, 1)
    # the guard resets after failure
    timing, _ = time_phases(task_inner, 1)
    assert timing.runtime_read >= 0.0


def test_time_phases_refuses_second_thread():
    entered, release = threading.Event(), threading.Event()
    outcome = {}

    def hold(size):
        entered.set()
        assert release.wait(timeout=30)
        return size

    def first():
        outcome["first"] = time_phases(
            PhaseTask(label="held", read=hold, solve=lambda d: d), 1)

    def second():
        try:
            time_phases(PhaseTask(label="second", read=lambda s: s,
                                  solve=lambda d: d), 1)
            outcome["second"] = "ran"
        except RuntimeError as exc:
            outcome["second"] = str(exc)

    holder = threading.Thread(target=first)
    holder.start()
    try:
        assert entered.wait(timeout=30)
        contender = threading.Thread(target=second)
        contender.start()
        contender.join(timeout=30)
    finally:
        release.set()
        holder.join(timeout=30)
    assert not contender.is_alive() and not holder.is_alive()
    assert "already running" in outcome["second"]
    assert outcome["first"][1] == 1
    # the guard is free again once the holder is done
    timing, _ = time_phases(PhaseTask(label="after", read=lambda s: s,
                                      solve=lambda d: d), 1)
    assert timing.runtime_read >= 0.0


def test_time_phases_admits_one_thread_at_a_time():
    # more threads than cores, switching often: a check-then-set guard
    # would let two threads in at once
    state = {"active": 0, "most": 0, "ran": 0, "refused": 0}
    count_lock = threading.Lock()
    start = threading.Barrier(8)

    def timed(size):
        with count_lock:
            state["active"] += 1
            state["most"] = max(state["most"], state["active"])
        sum(range(200))
        with count_lock:
            state["active"] -= 1
        return size

    task = PhaseTask(label="stress", read=timed, solve=lambda d: d)

    def worker():
        start.wait(timeout=30)
        for _ in range(300):
            try:
                time_phases(task, 1)
                outcome = "ran"
            except RuntimeError:
                outcome = "refused"
            with count_lock:
                state[outcome] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert state["ran"] + state["refused"] == 8 * 300
    assert state["ran"] > 0
    assert state["most"] == 1


def test_sweep_three_sizes(tmp_path):
    task = topk_task(k=3, seed=1, workdir=str(tmp_path))
    sweep = asymptotic_sweep([64, 128, 256], task)
    assert len(sweep.rows) == 3
    assert not sweep.failures
    assert [row.size_param for row in sweep.rows] == [64, 128, 256]
    for row in sweep.rows:
        assert row.runtime_read >= 0.0
        assert row.runtime_solve >= 0.0
    csv_text = sweep_csv(sweep.rows)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "size,runtime_read,runtime_solve,label"
    assert len(lines) == 4
    assert lines[1].startswith("64,")
    # 6-decimal seconds
    assert len(lines[1].split(",")[1].split(".")[1]) == 6


def test_sweep_single_size():
    sweep = asymptotic_sweep([32], urn_task(seed=0))
    assert len(sweep.rows) == 1
    assert 0 < sweep.results[32] <= 1.0


def test_sweep_records_failures_and_continues():
    def read(size):
        if size == 2:
            raise ValueError("bad size")
        return size

    task = PhaseTask(label="flaky", read=read, solve=lambda d: d)
    sweep = asymptotic_sweep([1, 2, 3], task)
    assert [row.size_param for row in sweep.rows] == [1, 3]
    assert list(sweep.failures) == [2]
    assert "read phase" in sweep.failures[2]


def test_sweep_validation():
    task = urn_task()
    with pytest.raises(ValueError, match="ascending"):
        asymptotic_sweep([4, 2], task)
    with pytest.raises(ValueError, match="nonempty"):
        asymptotic_sweep([], task)
    with pytest.raises(ValueError):
        time_phases(task, 4, repetitions=0)


def test_urn_task_result_deterministic():
    sweep1 = asymptotic_sweep([128, 256], urn_task(seed=3))
    sweep2 = asymptotic_sweep([128, 256], urn_task(seed=3))
    assert sweep1.results == sweep2.results


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("size", [1, 7, 128, 1000])
def test_urn_task_counts_like_urn_trial(seed, size):
    # a sweep row draws its urn from the stream of seed + size
    task = urn_task(seed=seed)
    assert task.solve(task.read(size)) == urn_trial(size, size, seed + size)


def test_matching_task_smoke():
    sweep = asymptotic_sweep([16, 32], matching_task(seed=2))
    assert len(sweep.rows) == 2
    for size, (matched, m_p) in sweep.results.items():
        assert 0 < matched <= size
        assert 0 < m_p <= 1.0


def test_select_topk_excludes_zero_counts():
    result = select_topk({"tt1": 2, "tt5": 1}, 5)
    assert result.entries == (("tt1", 2), ("tt5", 1))


def test_select_topk_matches_full_sort_with_ties():
    rng = random.Random(7)
    counts = {f"tt{i}": rng.randint(1, 4) for i in range(200)}
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    for k in (1, 5, 37, 199, 200, 500):
        assert select_topk(counts, k).entries == tuple(ordered[:k])


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(alphabet="t0123456789", max_size=4),
                       st.integers(0, 5), max_size=40),
       st.integers(1, 45))
@example({"tt1": 3, "tt2": 2, "tt3": 2, "tt4": 2, "tt0": 1}, 2)
@example({"tt1": 3, "tt2": 2, "tt3": 2}, 3)
@example({}, 1)
def test_select_topk_equals_nsmallest(counts, k):
    # ties straddle the k-th count, and k reaches past len(counts)
    want = heapq.nsmallest(k, counts.items(), key=lambda kv: (-kv[1], kv[0]))
    assert select_topk(counts, k).entries == tuple(want)


@pytest.mark.parametrize("size,seed", [(1, 2), (40, 3), (3000, 6)])
def test_tables_and_record_lists_agree(size, seed):
    movies, watches = gen_movielib(size, seed)
    movie_list, watch_list = list(movies), list(watches)
    for strategy in ("hash", "sorted"):
        counts = watch_counts(watches, strategy)
        assert counts == watch_counts(watch_list, strategy)
        assert counts == watch_counts(iter(watch_list), strategy)
        for k in (1, 10):
            assert (topk_movies(movies, watches, k, strategy)
                    == topk_movies(movie_list, watch_list, k, strategy))
    assert watch_histogram(watches) == watch_histogram(watch_list)
    # both agree with a recount over the records
    recount = {}
    for w in watch_list:
        recount[w.movie_id] = recount.get(w.movie_id, 0) + 1
    assert watch_counts(watches) == recount


def test_sorted_counts_ascend_by_id():
    _, watches = gen_movielib(3000, 6)
    assert list(watch_counts(watches, "sorted").items()) == \
        sorted(watch_counts(watches).items())


def test_topk_unknown_movie_in_a_table():
    movies, watches = gen_movielib(20, seed=4)
    with pytest.raises(ValueError, match=r"watch w\d+ references unknown"):
        topk_movies(movies[:1], watches, 3)


# Movie ids of 0 to 20 UTF-8 bytes, so that the packed keys span one to
# three words, sharing prefixes within and across words, with NULs and
# characters of two to four bytes.
_MOVIE_ID = st.one_of(
    st.builds(operator.add,
              st.sampled_from(["", "tt", "tt1", "tt1\0", "\0", "ttttttt",
                               "tttttttt", "tttttttt1", "t" * 16]),
              st.text(st.sampled_from("t01\0\x7f\xe9\u20ac\U0001d7d1"),
                      max_size=4)),
    st.text(max_size=5)).filter(lambda s: len(s.encode()) <= 20)


@settings(max_examples=150, deadline=None)
@given(st.lists(_MOVIE_ID, max_size=40), st.none() | st.integers(0, 39))
@example(["\ud800", "", "\udfff", "\ud800", "\U00010000", "\uffff", "\ud7ff"],
         None)
@example(["a\0", "a", "", "\0", "a", "a\0\0", "a\0"], None)
@example(["tt2", "tt10", "tt1", "tt10", "tt2", "tt10"], None)
@example(["tt2", "tt10", "tt1", "tt10", "tt2", "tt10"], 4)
def test_sorted_counts_equal_groupby(tmp_path_factory, ids, quoted):
    want = {k: len(list(g)) for k, g in groupby(sorted(ids))}
    rows = [(f"w{i}", movie_id, "2020-01-01", 1)
            for i, movie_id in enumerate(ids)]
    tables = [WatchTable.of(rows)]
    # a lone surrogate has no UTF-8 that a file could hold
    if ids and not any("\ud800" <= c <= "\udfff" for c in "".join(ids)):
        # a quoted date hands the file to the csv reader from its row's
        # block on; with none, the blocks are plain unless an id is not
        if quoted is not None:
            quoted %= len(ids)
            rows[quoted] = rows[quoted][:2] + ('a,"b"', 1)
        plain = quoted is None and not any(c in movie_id for c in ',\n"\r\0'
                                           for movie_id in ids)
        d = tmp_path_factory.mktemp("ids")
        mp, wp = str(d / "movies.csv"), str(d / "watches.csv")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(generators, "_WRITE_BLOCK_ROWS", 3)
            patch.setattr(generators, "_READ_BLOCK_CHARS", 40)
            write_movielib([], rows, mp, wp)
            _, read = read_movielib(mp, wp)
        # the csv reader took over exactly when a field was not plain
        _, tail = vars(read)["_text"]
        assert (tail[1] == []) == plain
        tables.append(read)
    for table in tables:
        got = watch_counts(table, "sorted")
        assert list(got.items()) == list(want.items())
        assert got == watch_counts(table, "hash")


def test_sorted_count_of_a_read_table_makes_no_string_column(tmp_path):
    movies, watches = gen_movielib(3000, seed=6)
    mp, wp = str(tmp_path / "movies.csv"), str(tmp_path / "watches.csv")
    write_movielib(movies, watches, mp, wp)
    got_movies, got_watches = read_movielib(mp, wp)
    top = topk_movies(got_movies, got_watches, 10, "sorted")
    assert top == topk_movies(movies, watches, 10, "hash")
    assert watch_counts(got_watches, "sorted") == watch_counts(watches)
    assert not {"watch_id", "movie_id", "date"} & vars(got_watches).keys()
