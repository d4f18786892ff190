"""Unit tests for the solver-kernel layer: parity, selection, trajectory.

The compiled module's loops fall back to plain Python when numba is not
importable (the ``njit`` shim is an identity decorator), so the
compiled-vs-reference bitwise parity tests run *everywhere* -- they pin the
algorithmic agreement of the two implementations independent of whether
the jit actually fires.  Selection-precedence tests exercise the registry
(env < configure < explicit) without needing numba either.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.model import MMSModel
from repro.params import paper_defaults
from repro.queueing.kernels import (
    KERNELS,
    KernelUnavailableError,
    MulticlassSoA,
    SymmetricSoA,
    available_kernels,
    compiled,
    default_kernel,
    kernel_impl,
    reference,
    resolve_kernel,
    set_default_kernel,
    trajectory_from_iterations,
    validate_kernel_name,
)

TOL = 1e-12
MAX_ITER = 100_000


def _lattice_soa() -> SymmetricSoA:
    """A realistic symmetric stack: nine paper points of one machine size."""
    models = [
        MMSModel(paper_defaults(num_threads=n, p_remote=p))
        for n in (1, 4, 16)
        for p in (0.05, 0.4, 0.8)
    ]
    arrays = [m.station_arrays() for m in models]
    return SymmetricSoA.pack(
        visits=np.stack([a[0] for a in arrays]),
        service=np.stack([a[1] for a in arrays]),
        station_type=arrays[0][2],
        populations=np.array([m.params.workload.num_threads for m in models]),
        servers=np.stack([a[3] for a in arrays]),
    )


def _multiclass_soa() -> MulticlassSoA:
    networks = [
        MMSModel(paper_defaults(k=2, num_threads=n, p_remote=p)).build_network()
        for n in (2, 8)
        for p in (0.1, 0.6)
    ]
    return MulticlassSoA.from_networks(networks)


def _assert_bitwise(a, b) -> None:
    for name in ("q", "w", "x", "iterations", "residual", "converged"):
        np.testing.assert_array_equal(
            getattr(a, name), getattr(b, name), err_msg=name
        )
    assert a.trajectory == b.trajectory


class TestCompiledReferenceParity:
    """The compiled loops must agree with the reference *bitwise*."""

    def test_symmetric_bitwise(self):
        soa = _lattice_soa()
        _assert_bitwise(
            reference.symmetric_fixed_point(soa, TOL, MAX_ITER),
            compiled.symmetric_fixed_point(soa, TOL, MAX_ITER),
        )

    def test_multiclass_bitwise(self):
        soa = _multiclass_soa()
        _assert_bitwise(
            reference.multiclass_fixed_point(soa, TOL, MAX_ITER),
            compiled.multiclass_fixed_point(soa, TOL, MAX_ITER),
        )

    def test_symmetric_with_empty_point(self):
        # a zero-population point is pre-converged in both kernels
        soa = SymmetricSoA.pack(
            visits=np.ones((3, 4)),
            service=np.full((3, 4), 0.25),
            station_type=np.array([0, 1, 1, 2]),
            populations=np.array([0, 3, 7]),
        )
        ref = reference.symmetric_fixed_point(soa, TOL, MAX_ITER)
        com = compiled.symmetric_fixed_point(soa, TOL, MAX_ITER)
        _assert_bitwise(ref, com)
        assert bool(ref.converged[0]) and int(ref.iterations[0]) == 0

    def test_iteration_cap_flags_nonconverged_identically(self):
        soa = _lattice_soa()
        ref = reference.symmetric_fixed_point(soa, TOL, 3)
        com = compiled.symmetric_fixed_point(soa, TOL, 3)
        _assert_bitwise(ref, com)
        assert not ref.converged.all()


def _mixed_symmetric_soa() -> SymmetricSoA:
    """Points converging at many different iterations, with n_t=0 rows.

    The empty rows sit between live ones so the compact active set has to
    map its rows back to scattered batch positions.
    """
    models = [
        MMSModel(paper_defaults(num_threads=n, p_remote=p, runlength=r))
        for n, p, r in (
            (1, 0.05, 10.0), (20, 0.8, 10.0), (3, 0.3, 20.0), (8, 0.2, 10.0),
            (1, 0.0, 20.0), (16, 0.6, 20.0), (2, 0.45, 10.0), (12, 0.1, 10.0),
        )
    ]
    arrays = [m.station_arrays() for m in models]
    pops = np.array([m.params.workload.num_threads for m in models])
    pops[[2, 5]] = 0
    return SymmetricSoA.pack(
        visits=np.stack([a[0] for a in arrays]),
        service=np.stack([a[1] for a in arrays]),
        station_type=arrays[0][2],
        populations=pops,
        servers=np.stack([a[3] for a in arrays]),
    )


def _mixed_multiclass_soa() -> MulticlassSoA:
    """Multi-class points of mixed n_t, one with no customers at all."""
    networks = [
        MMSModel(
            paper_defaults(k=2, num_threads=n, p_remote=p, pattern=pattern)
        ).build_network()
        for n, p, pattern in (
            (1, 0.1, "geometric"), (16, 0.7, "hotspot"), (4, 0.3, "uniform"),
            (2, 0.0, "geometric"), (8, 0.5, "hotspot"),
        )
    ]
    soa = MulticlassSoA.from_networks(networks)
    pops = soa.populations.copy()
    pops[3] = 0.0
    return MulticlassSoA(
        visits=soa.visits,
        service=soa.service,
        extra=soa.extra,
        populations=pops,
        queueing=soa.queueing,
    )


class TestCompactActiveSet:
    """The reference kernels iterate compact active arrays, gathered only
    when the set shrinks and written back only when points leave it.  Every
    output must still equal the per-point compiled loops bit for bit."""

    @pytest.mark.parametrize("max_iter", [1, 2, 7, 30, MAX_ITER])
    def test_symmetric_mixed_batch(self, max_iter):
        soa = _mixed_symmetric_soa()
        ref = reference.symmetric_fixed_point(soa, TOL, max_iter)
        _assert_bitwise(ref, compiled.symmetric_fixed_point(soa, TOL, max_iter))
        assert ref.converged[[2, 5]].all()
        assert (ref.iterations[[2, 5]] == 0).all()
        if max_iter == MAX_ITER:
            assert ref.converged.all()
            # the set shrank several times, not once at the end
            assert len(set(ref.iterations[ref.iterations > 0].tolist())) >= 4
        else:
            assert not ref.converged.all()

    @pytest.mark.parametrize("max_iter", [1, 2, 7, 30, MAX_ITER])
    def test_multiclass_mixed_batch(self, max_iter):
        soa = _mixed_multiclass_soa()
        ref = reference.multiclass_fixed_point(soa, TOL, max_iter)
        _assert_bitwise(ref, compiled.multiclass_fixed_point(soa, TOL, max_iter))
        if max_iter == MAX_ITER:
            assert ref.converged.all()
            assert len(set(ref.iterations.tolist())) >= 3

    def test_symmetric_points_alone_match_their_batch_rows(self):
        soa = _mixed_symmetric_soa()
        batch = reference.symmetric_fixed_point(soa, TOL, MAX_ITER)
        for i in range(soa.batch):
            p = soa.point(i)
            alone = reference.symmetric_fixed_point(
                SymmetricSoA(
                    visits=p["visits"][None],
                    service=p["service"][None],
                    extra=p["extra"][None],
                    populations=soa.populations[i : i + 1],
                    popf=soa.popf[i : i + 1],
                    station_type=soa.station_type,
                    type_masks=soa.type_masks,
                    type_index=soa.type_index,
                ),
                TOL,
                MAX_ITER,
            )
            for name in ("q", "w", "x", "iterations", "residual", "converged"):
                assert getattr(alone, name)[0].tobytes() == (
                    getattr(batch, name)[i].tobytes()
                ), name

    def test_exhaustion_under_strict_false(self):
        from repro.queueing import ConvergenceWarning, solve_symmetric_batch

        soa = _mixed_symmetric_soa()
        with pytest.warns(ConvergenceWarning, match="did not converge"):
            sols = solve_symmetric_batch(
                soa.visits, soa.service, soa.station_type,
                soa.populations, max_iter=7, strict=False, kernel="numpy",
            )
        com = compiled.symmetric_fixed_point(
            SymmetricSoA.pack(
                soa.visits, soa.service, soa.station_type, soa.populations
            ),
            TOL,
            7,
        )
        for i, sol in enumerate(sols):
            assert sol.iterations == int(com.iterations[i])
            assert sol.converged == bool(com.converged[i])
            assert sol.residual == float(com.residual[i])
            assert sol.queue_length.tobytes() == com.q[i].tobytes()
            assert sol.waiting.tobytes() == com.w[i].tobytes()
            assert sol.throughput == float(com.x[i])


class TestTrajectory:
    def test_empty(self):
        assert trajectory_from_iterations(np.array([], dtype=np.int64)) == ()

    def test_all_preconverged(self):
        assert trajectory_from_iterations(np.zeros(4, dtype=np.int64)) == ()

    def test_mixed_counts(self):
        # finished at iterations 0, 1, 3, 3: active sizes are 3, 2, 2
        iters = np.array([0, 1, 3, 3], dtype=np.int64)
        assert trajectory_from_iterations(iters) == (3, 2, 2)

    def test_matches_reference_in_loop_recording(self):
        soa = _lattice_soa()
        res = reference.symmetric_fixed_point(soa, TOL, MAX_ITER)
        assert res.trajectory == trajectory_from_iterations(res.iterations)


class TestSelection:
    def test_registry_names(self):
        assert KERNELS == ("auto", "numpy", "numba")
        assert "numpy" in available_kernels()

    def test_validate_unknown_name(self):
        with pytest.raises(ValueError, match=r"unknown kernel 'fortran'"):
            validate_kernel_name("fortran")
        with pytest.raises(ValueError, match=r"pick from auto/numpy/numba"):
            validate_kernel_name("fortran")

    def test_kernel_impl_mapping(self):
        assert kernel_impl("numpy") is reference
        assert kernel_impl("numba") is compiled
        with pytest.raises(ValueError, match="no kernel implementation"):
            kernel_impl("auto")

    def test_auto_resolves_to_something_available(self):
        assert resolve_kernel("auto") in available_kernels()
        assert resolve_kernel(None) in available_kernels()

    @pytest.mark.skipif(
        "numba" in available_kernels(), reason="numba is available here"
    )
    def test_explicit_numba_unavailable_raises(self):
        with pytest.raises(KernelUnavailableError, match="install numba"):
            resolve_kernel("numba")
        # KernelUnavailableError is a ValueError: one except clause catches
        # both bad names and unavailable kernels at validation sites
        assert issubclass(KernelUnavailableError, ValueError)

    def test_env_below_configure_below_explicit(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVE_KERNEL", "numpy")
        assert default_kernel() == "numpy"
        prev = set_default_kernel("auto")
        try:
            assert default_kernel() == "auto"  # configure beats env
            assert resolve_kernel("numpy") == "numpy"  # explicit beats both
        finally:
            set_default_kernel(prev)
        assert default_kernel() == "numpy"  # env applies again

    def test_set_default_returns_previous_and_validates(self):
        prev = set_default_kernel("numpy")
        try:
            with pytest.raises(ValueError, match="unknown kernel"):
                set_default_kernel("bogus")
            assert default_kernel() == "numpy"  # failed set left it alone
        finally:
            set_default_kernel(prev)

    def test_configure_facade_roundtrip(self):
        prev = repro.configure(kernel="numpy")
        try:
            assert default_kernel() == "numpy"
        finally:
            repro.configure(**prev)
