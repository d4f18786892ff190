"""The benchmark's arithmetic: percentile rule, spreads, tiling, names."""

import pytest

import stats


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 99) == 99
    assert stats.percentile(samples, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0


def test_highest_percentile_leaves_ten_samples_beyond():
    # 1000 distinct samples: p99 leaves 10 above it, p99.9 only 1
    assert stats.highest_percentile(list(range(1000))) == 99.0
    # 999 samples: p99 leaves 9 above it, so p95 is the highest
    assert stats.highest_percentile(list(range(999))) == 95.0
    assert stats.highest_percentile(list(range(10_000))) == 99.9
    assert stats.highest_percentile(list(range(15))) is None


def test_tail_refuses_an_unresolved_percentile():
    assert stats.tail(list(range(1000)), 99) == 989
    with pytest.raises(ValueError, match="need 10"):
        stats.tail(list(range(999)), 99)


def test_ties_do_not_count_as_beyond():
    samples = [1.0] * 990 + [2.0] * 10
    assert stats.beyond(samples, 99) == 10
    assert stats.beyond(samples, 99.9) == 0
    assert stats.highest_percentile(samples) == 99.0
    # five distinct slow samples: no percentile leaves ten above it
    assert stats.highest_percentile([1.0] * 995 + [2.0] * 5) is None


def test_quartile_spread_matches_the_acceptance_rule():
    import statistics

    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.05]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / q2)


def test_self_time_subtracts_children():
    # root(100) -> a(30) -> b(10); root -> c(50)
    spans = [("root", -1, 100), ("a", 0, 30), ("b", 1, 10), ("c", 0, 50)]
    assert stats.self_times(spans) == [20, 20, 10, 50]
    totals = stats.layer_totals(spans)
    assert sum(row["self"] for row in totals.values()) == 100
    assert totals["a"] == {"count": 1, "total": 30, "self": 20}


def test_layer_totals_of_one_phase():
    spans = [("r", -1, 10, "warmup"), ("r", -1, 40, "timed"), ("k", 1, 15, "timed")]
    totals = stats.layer_totals(spans, "timed")
    assert totals == {"r": {"count": 1, "total": 40, "self": 25},
                      "k": {"count": 1, "total": 15, "self": 15}}


def test_tiling_arithmetic():
    layers = {"api": 20.0, "kernel": 70.0}
    assert stats.unattributed_share(100.0, layers) == pytest.approx(0.10)
    assert stats.tiles(100.0, layers, 0.10)
    assert not stats.tiles(100.0, layers, 0.05)
    # layers can never cover more than the end-to-end time
    assert not stats.tiles(80.0, layers, 0.10)
    with pytest.raises(ValueError):
        stats.unattributed_share(0.0, layers)


@pytest.mark.parametrize("name", ["ops_per_s", "api.facade_us", "runner.cold.solve_s",
                                  "serve.batch_width_mean", "9lives", "a-b"])
def test_valid_names(name):
    assert stats.valid_name(name)


@pytest.mark.parametrize("name", ["", "_lead", ".lead", "has space", "semi;colon",
                                  "slash/name", "x" * 65, "ünï"])
def test_invalid_names(name):
    assert not stats.valid_name(name)


def test_units():
    for unit in ("ms", "s", "1/s", "count", "us/op", "%", "MB"):
        assert stats.valid_unit(unit)
    for unit in ("", "per second", "x" * 17):
        assert not stats.valid_unit(unit)
