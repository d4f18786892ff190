"""Seeded inputs: determinism, the serve repeat share, golden slots."""

from collections import Counter
from itertools import islice

import streams


def _take(it, n):
    return list(islice(it, n))


def test_same_seed_same_streams():
    assert _take(streams.point_stream(7), 200) == _take(streams.point_stream(7), 200)
    assert streams.lattice(7) == streams.lattice(7)
    for conn in (0, 1):
        assert _take(streams.serve_stream(7, conn), 300) == _take(streams.serve_stream(7, conn), 300)


def test_other_seed_other_points():
    a = _take(streams.point_stream(1), 100)
    b = _take(streams.point_stream(2), 100)
    assert all(x["overrides"] != y["overrides"] for x, y in zip(a, b))
    assert streams.lattice(1) != streams.lattice(2)
    a = [r["body"] for r in _take(streams.serve_stream(1, 0), 100) if not r["repeat"]]
    b = [r["body"] for r in _take(streams.serve_stream(2, 0), 100) if not r["repeat"]]
    assert not set(map(repr, a)) & set(map(repr, b))


def test_streams_of_a_run_are_independent():
    warm = [r["body"] for r in _take(streams.serve_stream(3, 0, "warmup"), 50)]
    timed = [r["body"] for r in _take(streams.serve_stream(3, 0), 50)]
    other = [r["body"] for r in _take(streams.serve_stream(3, 1), 50)]
    assert not set(map(repr, warm)) & set(map(repr, timed))
    assert not set(map(repr, other)) & set(map(repr, timed))


def test_point_stream_is_distinct_with_a_fixed_mix():
    queries = _take(streams.point_stream(5), 16 * 50)
    keys = [repr(q) for q in queries]
    assert len(set(keys)) == len(keys)
    for block in range(50):
        chunk = queries[16 * block:16 * (block + 1)]
        ops = Counter(q["op"] for q in chunk)
        assert ops == {"solve": 8, "tolerance": 8}
        assert Counter(q["scenario"] for q in chunk)["hier"] == 2


def test_serve_repeat_share_is_fixed():
    items = _take(streams.serve_stream(9, 0), 1000)
    repeats = [i for i, r in enumerate(items) if r["repeat"]]
    assert all(i >= streams.FIRST_REPEAT for i in repeats)
    assert all(i % streams.REPEAT_EVERY == streams.REPEAT_SLOT for i in repeats)
    # one of every four requests from the first repeat on (10, 14, ..., 998)
    assert len(repeats) == 248
    assert len(repeats) / len(items) == 0.248


def test_serve_fresh_points_cover_the_solve_kinds():
    items = _take(streams.serve_stream(6, 0), 400)
    fresh = [r["body"] for r in items if not r["repeat"]]
    kinds = {(b.get("scenario", "torus"), b["point"].get("pattern"), b["point"].get("k"))
             for b in fresh}
    assert kinds == set(streams.SOLVE_KINDS)


def test_serve_repeats_name_recent_points_of_the_same_connection():
    items = _take(streams.serve_stream(4, 1), 2000)
    fresh: list[str] = []
    for r in items:
        key = repr(r["body"])
        if r["repeat"]:
            assert key in fresh[-streams.REPEAT_WINDOW:]
        else:
            assert key not in fresh
            fresh.append(key)


def test_goldens_take_fresh_slots_only():
    goldens = tuple({"point": {"num_threads": n, "p_remote": 0.5}} for n in range(1, 13))
    items = _take(streams.serve_stream(2, 0, goldens=goldens), 400)
    placed = [(i, r["golden"]) for i, r in enumerate(items) if r["golden"] is not None]
    assert [g for _i, g in placed] == list(range(12))
    for i, g in placed:
        assert not items[i]["repeat"]
        assert items[i]["body"] == goldens[g]
        assert streams.golden_slot(i, len(goldens)) == g
    assert streams.golden_slot(121, 12) is None


def test_lattice_shape():
    grid = streams.lattice(11)
    assert len(grid["torus"]) == 3 * 6 * 8
    assert {p["k"] for p in grid["torus"]} == {4, 6, 8}
    assert len(grid["hier"]) == 16
    for k in (4, 6, 8):
        threads = sorted({p["num_threads"] for p in grid["torus"] if p["k"] == k})
        # one thread count from each sixth of 1..16, so every seed spans it
        assert len(threads) == 6 and threads[0] <= 2 and threads[-1] >= 14
        remotes = sorted({p["p_remote"] for p in grid["torus"] if p["k"] == k})
        assert len(remotes) == 8 and remotes[0] < 0.05 + 0.75 / 8 < remotes[1]
