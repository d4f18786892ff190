"""Unit tests for the Bard-Schweitzer AMVA and the Linearizer refinement."""

import warnings

import numpy as np
import pytest

from repro.queueing import (
    ClosedNetwork,
    ConvergenceWarning,
    StationKind,
    bard_schweitzer,
    exact_mva,
    exact_mva_single_class,
    linearizer,
)


def cyclic(demands, n):
    m = len(demands)
    return ClosedNetwork(
        visits=np.ones((1, m)),
        service=np.array(demands, dtype=float),
        populations=np.array([n]),
    )


class TestBardSchweitzer:
    def test_exact_at_n1(self):
        """With one customer there is no queueing: BS is exact."""
        net = cyclic([1.0, 3.0], 1)
        bs = bard_schweitzer(net)
        ex = exact_mva_single_class(net)
        assert bs.throughput[0] == pytest.approx(ex.throughput[0], rel=1e-9)

    def test_converges(self):
        sol = bard_schweitzer(cyclic([1.0, 2.0, 3.0], 10))
        assert sol.converged
        assert sol.iterations > 0

    def test_close_to_exact_single_class(self):
        """BS error is small (classically a few % worst case)."""
        for demands, n in [([1.0, 2.0], 5), ([1.0, 1.0, 4.0], 8), ([2.0] * 5, 3)]:
            net = cyclic(demands, n)
            bs = bard_schweitzer(net).throughput[0]
            ex = exact_mva_single_class(net).throughput[0]
            assert bs == pytest.approx(ex, rel=0.05)

    def test_close_to_exact_multiclass(self):
        net = ClosedNetwork(
            visits=np.array([[1.0, 0.5, 0.2], [0.3, 1.0, 0.7]]),
            service=np.array([1.0, 2.0, 1.5]),
            populations=np.array([4, 3]),
        )
        bs = bard_schweitzer(net)
        ex = exact_mva(net)
        assert np.allclose(bs.throughput, ex.throughput, rtol=0.08)

    def test_population_conserved(self):
        sol = bard_schweitzer(cyclic([1.0, 5.0], 12))
        assert sol.population_residual() < 1e-6

    def test_littles_law_at_fixed_point(self):
        sol = bard_schweitzer(cyclic([1.0, 2.0], 6))
        assert sol.littles_law_residual() < 1e-8

    def test_utilization_below_one(self):
        sol = bard_schweitzer(cyclic([1.0, 4.0], 30))
        assert (sol.total_utilization <= 1.0 + 1e-9).all()

    def test_throughput_monotone_in_population(self):
        xs = [
            bard_schweitzer(cyclic([1.0, 2.0], n)).throughput[0]
            for n in (1, 2, 4, 8, 16)
        ]
        assert all(a < b + 1e-12 for a, b in zip(xs, xs[1:]))

    def test_throughput_monotone_in_demand(self):
        """Adding service demand can only slow a closed network down."""
        x_fast = bard_schweitzer(cyclic([1.0, 1.0], 5)).throughput[0]
        x_slow = bard_schweitzer(cyclic([1.0, 2.0], 5)).throughput[0]
        assert x_slow < x_fast

    def test_zero_service_station(self):
        """Ideal (zero-delay) stations contribute no waiting."""
        with_zero = bard_schweitzer(cyclic([2.0, 0.0, 3.0], 5))
        without = bard_schweitzer(cyclic([2.0, 3.0], 5))
        assert with_zero.throughput[0] == pytest.approx(
            without.throughput[0], rel=1e-9
        )
        assert with_zero.waiting[0, 1] == 0.0

    def test_delay_station_waiting_is_service(self):
        net = ClosedNetwork(
            visits=np.ones((1, 2)),
            service=np.array([4.0, 2.0]),
            populations=np.array([6]),
            kinds=(StationKind.DELAY, StationKind.QUEUEING),
        )
        sol = bard_schweitzer(net)
        assert sol.waiting[0, 0] == pytest.approx(4.0)

    def test_zero_population_class(self):
        net = ClosedNetwork(
            visits=np.ones((2, 2)),
            service=np.array([1.0, 2.0]),
            populations=np.array([0, 3]),
        )
        sol = bard_schweitzer(net)
        assert sol.throughput[0] == 0.0
        assert sol.throughput[1] > 0.0

    def test_asymptotic_bottleneck(self):
        sol = bard_schweitzer(cyclic([1.0, 5.0], 100))
        assert sol.throughput[0] == pytest.approx(0.2, rel=1e-3)


class TestLinearizer:
    def test_at_least_as_good_as_bs(self):
        """Linearizer should land closer to exact than plain BS on an
        unbalanced multiclass instance."""
        net = ClosedNetwork(
            visits=np.array([[1.0, 0.5, 0.2], [0.3, 1.0, 0.7]]),
            service=np.array([1.0, 2.0, 1.5]),
            populations=np.array([4, 3]),
        )
        ex = exact_mva(net).throughput
        bs = bard_schweitzer(net).throughput
        lin = linearizer(net).throughput
        err_bs = np.abs(bs - ex).max()
        err_lin = np.abs(lin - ex).max()
        assert err_lin <= err_bs + 1e-12

    def test_single_class_accuracy(self):
        net = cyclic([1.0, 1.0, 4.0], 8)
        ex = exact_mva_single_class(net).throughput[0]
        lin = linearizer(net).throughput[0]
        assert lin == pytest.approx(ex, rel=0.01)

    def test_population_conserved(self):
        net = cyclic([1.0, 2.0], 6)
        sol = linearizer(net)
        assert sol.population_residual() < 1e-4


def _two_class() -> ClosedNetwork:
    return ClosedNetwork(
        visits=np.array([[1.0, 0.5, 0.2], [0.3, 1.0, 0.7]]),
        service=np.array([1.0, 2.0, 1.5]),
        populations=np.array([4, 3]),
    )


class TestLinearizerTelemetry:
    def test_converged_run_reports_its_real_pass_count(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            sol = linearizer(_two_class(), tol=1e-8)
        assert sol.converged
        assert 1 < sol.iterations < 50  # fewer than the max_outer cap
        assert 0.0 < sol.residual <= 1e-8

    def test_capped_run_warns_and_is_not_converged(self):
        with pytest.warns(ConvergenceWarning, match="linearizer did not converge"):
            sol = linearizer(_two_class(), max_outer=1)
        assert not sol.converged
        assert sol.iterations == 1
        assert sol.residual > 1e-8
        full = linearizer(_two_class())
        assert not np.allclose(sol.throughput, full.throughput, rtol=1e-5)
