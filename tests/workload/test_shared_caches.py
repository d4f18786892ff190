"""The per-topology caches behind the visit ratios hand out read-only arrays.

Every caller of :func:`~repro.topology.inbound_transit_counts` and
:func:`~repro.workload.access_patterns.shared_probability_matrix` gets the
same array object, so one in-place edit would corrupt every later solve.
Both caches mark their arrays read-only; writing raises ``ValueError``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.topology import Mesh2D, Torus2D, inbound_transit_counts
from repro.workload import (
    EmpiricalPattern,
    GeometricPattern,
    HotspotPattern,
    UniformPattern,
)
from repro.workload import access_patterns
from repro.workload.access_patterns import shared_probability_matrix


class TestTransitCounts:
    def test_write_raises(self):
        c = inbound_transit_counts(Torus2D(3))
        with pytest.raises(ValueError, match="read-only"):
            c[0, 1, 1] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            c += 1.0

    def test_float64_counts(self):
        c = inbound_transit_counts(Torus2D(4))
        assert c.dtype == np.float64
        assert set(np.unique(c).tolist()) == {0.0, 1.0}


class TestSharedProbabilityMatrix:
    @pytest.mark.parametrize(
        "pattern",
        [GeometricPattern(0.5), UniformPattern(), HotspotPattern(3, 0.4)],
        ids=["geometric", "uniform", "hotspot"],
    )
    def test_write_raises(self, pattern):
        q = shared_probability_matrix(pattern, Torus2D(4))
        with pytest.raises(ValueError, match="read-only"):
            q[0, 1] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            q *= 2.0

    def test_equal_to_fresh_matrix_and_shared(self):
        t = Torus2D(4)
        a = shared_probability_matrix(GeometricPattern(0.3), t)
        b = shared_probability_matrix(GeometricPattern(0.3), Torus2D(4))
        assert a is b
        assert a.tobytes() == GeometricPattern(0.3).module_probability_matrix(t).tobytes()

    def test_keyed_by_pattern_and_topology(self):
        geo = shared_probability_matrix(GeometricPattern(0.5), Torus2D(4))
        assert shared_probability_matrix(GeometricPattern(0.6), Torus2D(4)) is not geo
        assert shared_probability_matrix(GeometricPattern(0.5), Mesh2D(4)) is not geo
        assert shared_probability_matrix(UniformPattern(), Torus2D(4)) is not geo

    def test_subclass_never_shares_its_parents_entry(self):
        class Flat(GeometricPattern):
            def class_weights(self, h):
                return np.ones_like(h)

        t = Torus2D(4)
        plain = shared_probability_matrix(GeometricPattern(0.5), t)
        flat = shared_probability_matrix(Flat(0.5), t)
        assert not np.array_equal(plain, flat)

    def test_empirical_patterns_are_not_cached(self):
        q = UniformPattern().module_probability_matrix(Torus2D(3))
        pat = EmpiricalPattern(q)
        a = shared_probability_matrix(pat, Torus2D(3))
        assert a is not shared_probability_matrix(pat, Torus2D(3))
        a[0, 1] = 0.5  # a private copy: editing it harms nobody

    def test_cache_is_bounded(self):
        for i in range(access_patterns._MATRIX_CACHE_SIZE + 10):
            shared_probability_matrix(GeometricPattern(0.01 + i / 100), Torus2D(2))
        assert len(access_patterns._MATRIX_CACHE) <= access_patterns._MATRIX_CACHE_SIZE

    def test_concurrent_callers_get_correct_matrices(self):
        """More threads than cores churning the bounded cache (more keys
        than it holds) each get the right matrix, and the bound holds."""
        import sys
        import threading

        topo = Torus2D(3)
        patterns = [
            GeometricPattern(0.05 + i / 100)
            for i in range(access_patterns._MATRIX_CACHE_SIZE + 16)
        ]
        expected = {
            p.p_sw: p.module_probability_matrix(topo).tobytes() for p in patterns
        }
        errors: list[str] = []

        def worker(offset: int) -> None:
            for j in range(3 * len(patterns)):
                pat = patterns[(offset + 7 * j) % len(patterns)]
                got = shared_probability_matrix(pat, topo)
                if got.tobytes() != expected[pat.p_sw] or got.flags.writeable:
                    errors.append(f"p_sw={pat.p_sw}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(access_patterns._MATRIX_CACHE) <= (
            access_patterns._MATRIX_CACHE_SIZE
        )
