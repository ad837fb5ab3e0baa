import dataclasses

import numpy as np
import pytest

from gramfield import limit_solver
from gramfield.limit_solver import (AtomicMeasureH, SolverConfig,
                                    StieltjesKernel, measure_from_lambda,
                                    measure_from_profile, solve_centered_many,
                                    solve_noncentered_many,
                                    verify_kernel_axioms, write_solver_csv)
from gramfield.matgen import build_pseudo_diagonal
from gramfield.spectra import invert_stieltjes_to_cdf
from gramfield.symbols import FilterSequence1D, FilterSequence2D

from oracles import info_plus_noise_stieltjes, mp_cdf, mp_stieltjes

ONES = lambda u, t: np.ones(np.broadcast(u, t).shape)
ZEROS2 = lambda u, t: np.zeros(np.broadcast(u, t).shape)
H_TEST = FilterSequence2D({(0, 0): 1, (1, 0): 0.5, (0, 1): 0.25})
TIGHT = SolverConfig(tolerance=1e-12, max_iterations=50000)


def converged(results):
    """The kernels, or (pi, pi_tilde) pairs, of a batch solve, after
    checking that every point converged."""
    assert all((r[0] if isinstance(r, tuple) else r).converged
               for r in results)
    return results


class TestConfigAndGrid:
    def test_midpoint_grid(self):
        cfg = SolverConfig(grid_size=8)
        k, = converged(solve_centered_many(ONES, 1.0, [1j], cfg))
        assert np.array_equal(k.nodes, (np.arange(8) + 0.5) / 8)

    def test_profile_measure_needs_a_node(self):
        with pytest.raises(ValueError, match="^m must be at least 1, got 0$"):
            measure_from_profile(np.ones_like, 0)

    @pytest.mark.parametrize("m", [8.5, True, "8", np.float64(np.nan)],
                             ids=["fraction", "bool", "string", "nan"])
    def test_profile_measure_needs_an_integer_count(self, m):
        # 8.5 used to raise numpy's TypeError, which named no argument
        with pytest.raises(ValueError, match="^m must be an integer, got"):
            measure_from_profile(np.ones_like, m)

    @pytest.mark.parametrize("diag", [np.array([]), []],
                             ids=["array", "list"])
    def test_empty_diagonal_rejected(self, diag):
        # used to raise a ZeroDivisionError
        with pytest.raises(ValueError, match="^diag must be nonempty$"):
            measure_from_lambda(diag)

    def test_profile_measure_is_the_vectorized_profile(self):
        # a per-node loop put |psi|^2 a few ulp off the vectorized values
        # the solvers use
        a = FilterSequence1D({0: 1, 3: 0.5, -5: 0.25})
        H = measure_from_profile(a.profile, 32)
        assert np.array_equal(H.lam, a.profile((np.arange(32) + 0.5) / 32))

    def test_scalar_profile_measure_rejected(self):
        with pytest.raises(ValueError, match=r"shape \(8,\)"):
            measure_from_profile(lambda u: 1.0, 8)

    def test_config_validation(self):
        with pytest.raises(ValueError,
                           match="^grid_size must be at least 8, got 4$"):
            SolverConfig(grid_size=4)
        with pytest.raises(ValueError):
            SolverConfig(tolerance=0)
        with pytest.raises(ValueError):
            SolverConfig(damping=1.5)
        with pytest.raises(ValueError,
                           match="^max_iterations must be at least 1, "
                                 "got 0$"):
            SolverConfig(max_iterations=0)

    @pytest.mark.parametrize("setting, value, message", [
        ("grid_size", 8.5, "an integer"), ("grid_size", True, "an integer"),
        ("max_iterations", True, "an integer"),
        ("tolerance", "1e-8", "a number"), ("tolerance", True, "a number"),
        ("damping", True, "a number"), ("damping", "0.5", "a number"),
        ("damping", None, "a number")])
    def test_wrong_type_rejected(self, setting, value, message):
        # max_iterations=True ran one iteration, damping=True loaded as
        # 1.0, grid_size=8.5 failed inside the solve and damping=None
        # selected a per-z step
        with pytest.raises(ValueError,
                           match=f"^{setting} must be {message}, got"):
            SolverConfig(**{setting: value})

    def test_integral_floats_accepted(self):
        # max_iterations=100.0 used to be rejected here, while a config
        # holding 100.0 loaded
        cfg = SolverConfig(grid_size=16.0, max_iterations=100.0)
        assert (cfg.grid_size, cfg.max_iterations) == (16, 100)
        assert type(cfg.grid_size) is type(cfg.max_iterations) is int

    def test_numpy_scalars_accepted(self):
        cfg = SolverConfig(grid_size=np.int64(16), tolerance=np.float64(1e-8),
                           max_iterations=np.int32(50), damping=np.float32(1))
        assert cfg.grid_size == 16 and cfg.damping == 1.0

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_non_finite_tolerance_rejected(self, tol):
        # NaN ran every iteration and reported residual 0.0 unconverged;
        # inf "converged" after one iteration
        with pytest.raises(ValueError, match="tolerance must be finite"):
            SolverConfig(tolerance=tol)

    @pytest.mark.parametrize("setting", ["tolerance", "damping"])
    def test_huge_integer_rejected(self, setting):
        # tolerance=10**400 used to raise a bare TypeError from np.isfinite
        with pytest.raises(ValueError, match=f"^{setting} is an integer too "
                                             "large for a float"):
            SolverConfig(**{setting: 10 ** 400})

    def test_default_damping(self):
        assert SolverConfig().damping == 0.5
        assert not hasattr(SolverConfig, "damping_for")


class TestCentered:
    def test_marchenko_pastur_at_i(self):
        k, = converged(solve_centered_many(ONES, 1.0, [1j], TIGHT))
        assert abs(k.value - mp_stieltjes(1j, 1.0)) < 1e-6

    def test_marchenko_pastur_near_real_axis(self):
        z = -1.0 + 1e-8j
        k, = converged(solve_centered_many(ONES, 1.0, [z], TIGHT))
        assert abs(k.value - (np.sqrt(5) - 1) / 2) < 1e-4
        assert abs(k.value - mp_stieltjes(z, 1.0)) < 1e-4

    def test_non_finite_residual_stops_the_point(self):
        # -1/z overflows at z = 1e-310j, so the state is NaN after one step
        with np.errstate(all="ignore"):
            bad, good = solve_centered_many(ONES, 1.0, [1e-310j, 1j], TIGHT)
        assert bad.iterations == 1
        assert not bad.converged
        assert good.converged
        assert abs(good.value - mp_stieltjes(1j, 1.0)) < 1e-6

    def test_marchenko_pastur_ratio_half(self):
        k, = converged(solve_centered_many(ONES, 0.5, [1j], TIGHT))
        assert abs(k.value - mp_stieltjes(1j, 0.5)) < 1e-6

    def test_zero_profile_is_point_mass(self):
        z = 0.3 + 2j
        k, = converged(solve_centered_many(ZEROS2, 1.0, [z], TIGHT))
        assert abs(k.value - (-1.0 / z)) < 1e-12
        assert np.allclose(k.weights, (-1.0 / z) / len(k.weights))

    def test_residual_reevaluated(self):
        k, = solve_centered_many(H_TEST.profile, 1.0, [1j], TIGHT)
        assert k.converged
        assert k.residual <= TIGHT.tolerance

    def test_batch_matches_single(self):
        # a batch and batches of one point agree to summation-order noise
        zs = [1j, 0.5 + 0.25j, -2.0 + 1e-3j]
        batch = converged(solve_centered_many(H_TEST.profile, 1.0, zs, TIGHT))
        for z, kb in zip(zs, batch):
            ks, = solve_centered_many(H_TEST.profile, 1.0, [z], TIGHT)
            assert ks.iterations == kb.iterations
            assert np.abs(ks.weights - kb.weights).max() < 1e-14

    def test_grid_refinement(self):
        f64, f128 = (converged(solve_centered_many(
            H_TEST.profile, 1.0, [1.0 + 0.5j],
            SolverConfig(grid_size=m, tolerance=1e-12,
                         max_iterations=50000)))[0].value for m in (64, 128))
        assert abs(f64 - f128) < 1e-3

    def test_transform_properties(self):
        zs = [1j, 3 + 0.2j, -1 + 0.05j]
        kernels = converged(solve_centered_many(H_TEST.profile, 0.75, zs,
                                                TIGHT))
        for z, k in zip(zs, kernels):
            f = k.value
            assert f.imag > 0
            assert abs(f) <= 1.0 / z.imag + 1e-9
            assert (z * f).imag >= -1e-12

    def test_tail_normalization(self):
        y = 1e3
        k, = converged(solve_centered_many(H_TEST.profile, 1.0, [1j * y],
                                           TIGHT))
        f = k.value
        assert abs(-1j * y * f - 1.0) < 1e-2

    def test_invalid_z_and_c(self):
        with pytest.raises(ValueError):
            solve_centered_many(ONES, 1.0, [1.0 - 1j])
        with pytest.raises(ValueError):
            solve_centered_many(ONES, 1.5, [1j])

    @pytest.mark.parametrize("z", [complex(0.0, np.nan), complex(np.nan, 1.0),
                                   complex(np.inf, 1.0)])
    def test_non_finite_z_rejected(self, z):
        with pytest.raises(ValueError, match="finite"):
            solve_centered_many(ONES, 1.0, [1j, z])

    def test_non_finite_profile_rejected(self):
        # NaN on a quarter of the grid used to run out the iteration
        # budget and return NaN with converged=False
        def profile(u, t):
            return np.where((u < 0.5) & (t < 0.5), np.nan, 1.0)
        cfg = SolverConfig(grid_size=16, max_iterations=20000)
        with pytest.raises(ValueError, match="profile must be finite"):
            solve_centered_many(profile, 1.0, [1j], cfg)

    def test_non_vectorized_profile_rejected(self):
        with pytest.raises(ValueError, match=r"shape \(16, 16\)"):
            solve_centered_many(lambda u, t: 1.0, 1.0, [1j],
                                SolverConfig(grid_size=16))

    @pytest.mark.parametrize("profile, message", [
        (H_TEST.symbol,
         r"must be real-valued \(pass \|Phi\|\^2, not Phi\)"),
        (lambda u, t: -ONES(u, t),
         r"must be nonnegative \(pass \|Phi\|\^2\)")],
        ids=["symbol_not_profile", "negative"])
    def test_profile_must_be_a_squared_modulus(self, profile, message):
        with pytest.raises(ValueError, match=f"^profile {message}$"):
            solve_centered_many(profile, 1.0, [1j], SolverConfig(grid_size=16))


@pytest.mark.parametrize("solve, args", [
    (solve_centered_many, (H_TEST.profile, 1.0)),
    (solve_noncentered_many,
     (H_TEST.profile, 0.5, measure_from_profile(np.ones_like, 8)))],
    ids=["centered", "noncentered"])
def test_iteration_budget_stops_the_point(solve, args):
    # a point that runs out of max_iterations is returned unconverged with
    # its final iterate; for the coupled solver, pi of the pair
    cfg = SolverConfig(tolerance=1e-14, max_iterations=2)
    for result in solve(*args, [0.5 + 0.01j, 2.0 + 0.5j], cfg):
        kernel = result[0] if isinstance(result, tuple) else result
        assert kernel.converged is False
        assert kernel.iterations == 2
        assert kernel.residual > cfg.tolerance


def _centered_update_reference(P, c, z, w):
    """Independent loop-based reimplementation of one update step."""
    m = len(w)
    denom_t = np.array([1.0 + c * sum(P[x, t] * w[x] for x in range(m))
                        for t in range(m)])
    out = np.empty(m, dtype=complex)
    for u in range(m):
        inner = sum(P[u, t] / denom_t[t] for t in range(m)) / m
        out[u] = (1.0 / m) / (-z + inner)
    return out


def _noncentered_update_reference(profile, c, H, tail, z, w, wt):
    """Independent loop-based reimplementation of one non-centered update:
    ``w`` on the atoms of H, ``wt`` on the atoms mapped to c u followed by
    the (1 - c) tail nodes ``tail`` of equal weight (1 - c) / len(tail)."""
    atoms = len(H.u)
    tilde = [c * uu for uu in H.u] + list(tail)
    P = lambda s, t: float(profile(np.array(s), np.array(t)))
    # int P(u_i, t) dpit, and int P(t, v) dpi at every tilde node v
    t_tilde = [sum(P(H.u[i], v) * wt[j] for j, v in enumerate(tilde))
               for i in range(atoms)]
    s_at = [sum(P(H.u[k], v) * w[k] for k in range(atoms)) for v in tilde]
    out = np.empty(atoms, dtype=complex)
    out_t = np.empty(len(tilde), dtype=complex)
    for i in range(atoms):
        lam = H.lam[i]
        out[i] = (1 / atoms) / (-z * (1 + t_tilde[i])
                                + lam / (1 + c * s_at[i]))
        out_t[i] = (c / atoms) / (-z * (1 + c * s_at[i])
                                  + lam / (1 + t_tilde[i]))
    for r in range(atoms, len(tilde)):
        out_t[r] = ((1 - c) / len(tail)) / (-z * (1 + c * s_at[r]))
    return out, out_t


def _square_update_reference(P, psi2, z, w, wt):
    """Independent loop-based reimplementation of one update of the
    square-Toeplitz system on the m-point midpoint grid, with P[u, t] and
    psi2[u] = |psi(u)|^2 on its nodes:

        pi(du)  = du / (-z (1 + int P(u,.) dpit) + psi2(u) / (1 + int P(.,u) dpi))
        pit(du) = du / (-z (1 + int P(.,u) dpi) + psi2(u) / (1 + int P(u,.) dpit))
    """
    m = len(w)
    out = np.empty(m, dtype=complex)
    out_t = np.empty(m, dtype=complex)
    for u in range(m):
        row = sum(P[u, t] * wt[t] for t in range(m))   # int P(u,.) dpit
        col = sum(P[t, u] * w[t] for t in range(m))    # int P(.,u) dpi
        out[u] = (1.0 / m) / (-z * (1 + row) + psi2[u] / (1 + col))
        out_t[u] = (1.0 / m) / (-z * (1 + col) + psi2[u] / (1 + row))
    return out, out_t


def _grid_profile(h, m):
    x = (np.arange(m) + 0.5) / m
    return h.profile(x[:, None], x[None, :])


def _random_filter(rng, width):
    """Complex taps on the width x width box {0..width-1}^2."""
    return FilterSequence2D({
        (k1, k2): complex(*rng.standard_normal(2))
        for k1 in range(width) for k2 in range(width)})


def _factored(w, F, G):
    """w @ (F @ G) as the solver forms it: (w @ F) @ G on the real
    operands kron(F, I2) and kron(G, I2)."""
    times, real = limit_solver._times_real, limit_solver._real
    return times(times(w, real(F)), real(G))


class TestLowRankProducts:
    # a finite filter's |Phi|^2 is a trigonometric polynomial, so its
    # matrix on the midpoint grid has rank at most
    # min(|{k1 - l1}|, |{k2 - l2}|) over pairs of taps k, l

    @pytest.mark.parametrize("m", [8, 64, 256])
    def test_readme_filter_has_rank_three(self, m):
        A, B = limit_solver._low_rank(_grid_profile(H_TEST, m))
        assert A.shape == (m, 3)
        assert B.shape == (3, m)

    def test_noncentered_grid_has_rank_three(self):
        # 256 atoms against pi_tilde's nodes at c = 1/2: the atoms at c u,
        # then the 64-node tail on [c, 1]
        u = (np.arange(256) + 1) / 256
        v = np.concatenate([0.5 * u, 0.5 + 0.5 * (np.arange(64) + 0.5) / 64])
        P = H_TEST.profile(u[:, None], v[None, :])
        A, B = limit_solver._low_rank(P)
        assert A.shape == (256, 3)
        assert B.shape == (3, 320)

    def test_zero_profile_has_rank_zero(self):
        A, B = limit_solver._low_rank(np.zeros((16, 16)))
        assert A.shape == (16, 0)
        assert B.shape == (0, 16)
        w = np.ones((2, 16), dtype=complex)
        assert np.array_equal(_factored(w, A, B), np.zeros((2, 16)))
        assert np.array_equal(_factored(w, B.T, A.T), np.zeros((2, 16)))

    @pytest.mark.parametrize("width, m, rank", [(3, 64, 5), (5, 8, 8)],
                             ids=["random_3x3_taps", "full_rank_5x5_taps"])
    def test_factored_product_matches_dense(self, width, m, rank):
        # 5 x 5 taps give 9 differences per axis, 8 distinct on an
        # 8-point grid: the full-rank worst case
        rng = np.random.default_rng(11)
        P = _grid_profile(_random_filter(rng, width), m)
        assert np.linalg.matrix_rank(P) == rank
        A, B = limit_solver._low_rank(P)
        assert limit_solver._real(A).shape == (2 * m, 2 * rank)
        w = rng.standard_normal((5, m)) + 1j * rng.standard_normal((5, m))
        for got, want in ((_factored(w, A, B), w @ P),
                          (_factored(w, B.T, A.T), w @ P.T)):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        # a single z, one row, is as accurate as a batch
        assert np.abs(_factored(w[:1], A, B) - w[:1] @ P).max() \
            <= 1e-13 * np.abs(w[:1] @ P).max()


def _iterate_reference(z, cfg, state, fmap):
    """Independent per-row loop of the safeguarded Newton iteration of
    ``_iterate``: each z alone, stopped when its weights move by at most
    the tolerance or by a non-finite amount, or at the iteration budget.
    Returns the final rows, counts and residuals."""
    rows, counts, resid = [], [], []
    for i in range(len(z)):
        zi, d = z[i:i + 1], cfg.damping

        def at(y):
            w, invs = fmap.evaluate(y, zi)
            return y, fmap.project(w) - y, w, invs

        y, F, w, invs = at(fmap.project(tuple(s[i:i + 1] for s in state)))
        for it in range(1, cfg.max_iterations + 1):
            J = fmap.jacobian(zi, w, invs)
            step = np.linalg.solve(np.eye(y.shape[1]) - J, F[..., None])
            y_n, F_n, w_n, invs_n = at(y + step[..., 0])
            # a Stieltjes kernel: Im w >= 0, Im(z w) >= 0, Im(1/d) <= 0
            kernel = (all(np.all(v.imag >= 0) and np.all((zi * v).imag >= 0)
                          for v in w_n)
                      and all(np.all(iv.imag <= 0) for iv in invs_n))
            if not (np.abs(F_n).max() < np.abs(F).max() and kernel):
                y_n, F_n, w_n, invs_n = at(y + d * F)
            moved = max(np.abs(b - a).max() for a, b in zip(w, w_n))
            y, F, w, invs = y_n, F_n, w_n, invs_n
            if not np.isfinite(moved) or moved <= cfg.tolerance:
                break
        rows.append(w)
        counts.append(it)
        g, _ = fmap.evaluate(fmap.project(w), zi)
        resid.append(max(np.abs(b - a).max() for a, b in zip(w, g)))
    return ([np.concatenate(block) for block in zip(*rows)],
            np.array(counts), np.array(resid))


def _mp_map(calls):
    """The Marchenko-Pastur equation g = 1 / (-z + 1 / (1 + g)) as an
    elementwise fixed-point map in y = g, so that every row's arithmetic
    is the same alone and in a batch.  Its Jacobian is inflated fourfold
    at Re z = 2, which makes Newton's steps there poor."""

    def evaluate(y, z):
        calls.append(z.tolist())
        inv = 1.0 / (1.0 + y)
        return (1.0 / (-z[:, None] + inv),), (inv,)

    def jacobian(z, weights, invs):
        (g,), (inv,) = weights, invs
        skew = np.where(z.real == 2.0, 4.0, 1.0)[:, None]
        return (skew * g * g * inv * inv)[:, :, None]

    return limit_solver._FixedPointMap(evaluate, lambda w: w[0].copy(),
                                       jacobian)


class TestCompactedIteration:
    def test_mixed_batch_keeps_each_row(self):
        # tolerance 1e-10 with a budget of 6: 5j, 0.3 + 2j and -1 + 0.1j
        # stop early; 0.5 + 0.01j (inside the support, Newton rejected
        # and damped steps taken) and 2 + 0.5j (skewed Jacobian) run out
        # the budget; -1/z overflows at 1e-310j, so that row stops at 1
        cfg = SolverConfig(tolerance=1e-10, max_iterations=6)
        z = np.array([5j, 0.5 + 0.01j, 1e-310j, 2 + 0.5j, 0.3 + 2j,
                      -1 + 0.1j])
        calls = []
        with np.errstate(over="ignore", invalid="ignore"):
            state = ((-1.0 / z)[:, None],)
            want, want_iters, want_resid = _iterate_reference(
                z, cfg, (state[0].copy(),), _mp_map([]))
            resid, iters, conv = limit_solver._iterate(z, cfg, state,
                                                       _mp_map(calls))
        assert iters.tolist() == [3, 6, 1, 6, 4, 4]
        assert conv.tolist() == [True, False, False, False, True, True]
        assert np.array_equal(iters, want_iters)
        assert np.array_equal(state[0], want[0], equal_nan=True)
        assert np.array_equal(resid, want_resid, equal_nan=True)
        assert not np.isfinite(state[0][2]).any()
        # per iteration: the Newton candidates of the active rows, then the
        # damped steps of the rows that rejected theirs; first the start
        # point of every row, last the residual re-evaluated on every row
        every = z.tolist()
        finite = every[:2] + every[3:]
        assert calls == [every, every, [0.5 + 0.01j, 1e-310j],
                         finite, [0.5 + 0.01j],
                         finite, [0.5 + 0.01j],
                         [0.5 + 0.01j, 2 + 0.5j, 0.3 + 2j, -1 + 0.1j],
                         [0.5 + 0.01j, 2 + 0.5j], [0.5 + 0.01j],
                         [0.5 + 0.01j, 2 + 0.5j], [0.5 + 0.01j], every]

    def test_blocks_keep_each_row(self, monkeypatch):
        # blocks of 3 z points (the last one short) against one block,
        # equal up to the summation order of the batched products
        cfg = SolverConfig(grid_size=16, tolerance=1e-12)
        zs = [3j, 0.5 + 1e-2j, 1 + 1j, -1 + 0.3j, 2 + 1e-3j, 4j, 0.1 + 0.1j]
        whole = solve_centered_many(H_TEST.profile, 0.5, zs, cfg)
        monkeypatch.setattr(limit_solver, "_BLOCK", 3 * cfg.grid_size)
        blocked = solve_centered_many(H_TEST.profile, 0.5, zs, cfg)
        for a, b in zip(whole, blocked):
            assert a.iterations == b.iterations
            assert np.abs(a.weights - b.weights).max() < 1e-14

    def test_batch_matches_single_noncentered(self):
        # the coupled solver on a mixed batch: early, late and
        # budget-stopped points keep the iterate of their own solve
        H = measure_from_profile(np.ones_like, 16)
        cfg = SolverConfig(grid_size=16, tolerance=1e-12, max_iterations=6)
        zs = [3j, 0.5 + 1e-2j, 1 + 1j, -1 + 0.3j]
        batch = solve_noncentered_many(H_TEST.profile, 0.5, H, zs, cfg)
        assert {pi.converged for pi, _ in batch} == {True, False}
        for z, (pi, pit) in zip(zs, batch):
            (one, one_t), = solve_noncentered_many(H_TEST.profile, 0.5, H,
                                                   [z], cfg)
            assert one.iterations == pi.iterations
            assert np.abs(one.weights - pi.weights).max() < 1e-14
            assert np.abs(one_t.weights - pit.weights).max() < 1e-14


def _fd_jacobian(fmap, y, z, h=1e-5):
    """Central differences of y -> proj(g(y)); G is holomorphic in y, so
    a real step gives its complex derivative."""
    cols = []
    for k in range(y.shape[1]):
        e = np.zeros_like(y)
        e[:, k] = h
        up, down = (fmap.project(fmap.evaluate(y + s * e, z)[0])
                    for s in (1, -1))
        cols.append((up - down) / (2 * h))
    return np.stack(cols, axis=2)


class TestNewtonJacobian:
    # the analytic Jacobian of y -> proj(g(y)) against central differences
    # at random kernel-like weights (Im w > 0): the README filter (rank 3)
    # and the full-rank 5 x 5 taps at grid 8 (rank 8)

    FILTERS = [(H_TEST, 64, 3), (_random_filter(np.random.default_rng(11), 5),
                                 8, 8)]

    @staticmethod
    def _weights(rng, shape):
        return (rng.standard_normal(shape)
                + 1j * rng.uniform(0.1, 1.0, shape)) / shape[1]

    def _check(self, fmap, state, z):
        y = fmap.project(state)
        J = fmap.jacobian(z, *fmap.evaluate(y, z))
        fd = _fd_jacobian(fmap, y, z)
        assert np.abs(J - fd).max() <= 1e-6 * np.abs(fd).max()

    @pytest.mark.parametrize("c", [1.0, 0.5])
    @pytest.mark.parametrize("h, m, rank", FILTERS,
                             ids=["readme", "full_rank"])
    def test_centered(self, h, m, rank, c):
        rng = np.random.default_rng(5)
        P = _grid_profile(h, m)
        fmap = limit_solver._centered_map(P, c)
        z = np.array([0.5 + 0.01j, 2.0 + 0.3j, -1.0 + 1.0j])
        state = (self._weights(rng, (3, m)),)
        assert fmap.project(state).shape == (3, rank)
        self._check(fmap, state, z)

    @pytest.mark.parametrize("c", [1.0, 0.5])
    @pytest.mark.parametrize("h, m, rank", FILTERS,
                             ids=["readme", "full_rank"])
    def test_noncentered(self, h, m, rank, c):
        # atoms at (u_i, lambda_i) against pi_tilde's nodes: the atoms at
        # c u, then an m-node tail on [c, 1] when c < 1
        rng = np.random.default_rng(6)
        u = (np.arange(m) + 1) / m
        R = m if c < 1 else 0
        v = np.concatenate([c * u, c + (1 - c) * (np.arange(R) + 0.5) / R])
        P = h.profile(u[:, None], v[None, :])
        hw = np.full(m, 1.0 / m)
        hl = rng.uniform(0.0, 2.0, m)
        tilde_w = np.concatenate([c * hw, np.full(R, 1 - c) / R])
        fmap = limit_solver._noncentered_map(P, c, hw, hl, tilde_w)
        z = np.array([0.5 + 0.01j, 2.0 + 0.3j, -1.0 + 1.0j])
        state = (self._weights(rng, (3, m)), self._weights(rng, (3, m + R)))
        assert fmap.project(state).shape == (3, 2 * rank)
        self._check(fmap, state, z)


class TestErrorBound:
    # 600 points at eta = 1e-3 across the README spectrum, README solver
    # settings: each f is within the tolerance of a tolerance-1e-13 solve,
    # and each returned kernel passes the axioms
    Z = np.linspace(-0.5, 6.5, 600) + 1e-3j
    CFG = SolverConfig(grid_size=64, tolerance=1e-7, max_iterations=100000,
                       damping=0.5)
    REF = dataclasses.replace(CFG, tolerance=1e-13)

    @staticmethod
    def _solve(setting, cfg):
        profile = H_TEST.profile
        if setting.startswith("centered"):
            kernels = solve_centered_many(profile, float(setting[9:]),
                                          TestErrorBound.Z, cfg)
            return np.array([k.value for k in kernels]), kernels
        if setting == "coupled":
            H = measure_from_profile(
                lambda u: (1 + 0.5 * np.cos(2 * np.pi * u)) ** 2, 32)
            c = 0.5
        else:       # square-Toeplitz: the pseudo-diagonal system at c = 1
            a = FilterSequence1D({0: 1, 1: .5, -1: .5})
            H, c = measure_from_profile(a.profile, cfg.grid_size), 1.0
        pairs = solve_noncentered_many(profile, c, H, TestErrorBound.Z, cfg)
        return (np.array([k.value for k, _ in pairs]),
                [k for pair in pairs for k in pair])

    @pytest.mark.parametrize("setting", ["centered 1", "centered 0.5",
                                         "coupled", "square"])
    def test_error_within_tolerance(self, setting):
        f, kernels = self._solve(setting, self.CFG)
        f_ref, _ = self._solve(setting, self.REF)
        assert all(k.converged for k in kernels)
        assert np.abs(f - f_ref).max() <= self.CFG.tolerance
        assert all(verify_kernel_axioms(k).passed for k in kernels)

    def test_marchenko_pastur_hard_edge(self):
        # the damped iteration took 5408 iterations here
        z = 1e-4 + 1e-4j
        k, = converged(solve_centered_many(ONES, 1.0, [z], self.CFG))
        assert k.iterations <= 50
        assert abs(k.value - mp_stieltjes(z, 1.0)) <= 1e-10


class TestConjugateSymmetry:
    def test_update_map_commutes_with_conjugation(self):
        x = (np.arange(16) + 0.5) / 16
        P = H_TEST.profile(x[:, None], x[None, :])
        rng = np.random.default_rng(3)
        w = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        z = 0.7 + 0.9j
        up = _centered_update_reference(P, 1.0, z, w)
        up_conj = _centered_update_reference(P, 1.0, np.conj(z), np.conj(w))
        assert np.array_equal(np.conj(up), up_conj)

    def test_conjugate_point_is_fixed_point_below_axis(self):
        # iterating at conj(z) from the conjugate initial point converges
        # to the conjugate kernel: its weights are a fixed point of the
        # conjugated map within the same tolerance
        cfg = SolverConfig(grid_size=16, tolerance=1e-12, max_iterations=50000)
        z = 0.4 + 0.8j
        k, = converged(solve_centered_many(H_TEST.profile, 1.0, [z], cfg))
        x = (np.arange(16) + 0.5) / 16
        P = H_TEST.profile(x[:, None], x[None, :])
        w_conj = np.conj(k.weights)
        up = _centered_update_reference(P, 1.0, np.conj(z), w_conj)
        assert np.abs(up - w_conj).max() <= cfg.tolerance


class TestSquare:
    # a square-Toeplitz part with symbol psi is solved as the non-centered
    # pair at c = 1 over H = measure_from_profile(|psi|^2, grid_size)
    def test_mp_reduction(self):
        zero1 = lambda u: np.zeros(np.shape(u))
        H = measure_from_profile(zero1, TIGHT.grid_size)
        (pi, _), = converged(solve_noncentered_many(ONES, 1.0, H, [1j], TIGHT))
        assert abs(pi.value - mp_stieltjes(1j, 1.0)) < 1e-6

    def test_non_finite_psi_rejected(self):
        with pytest.raises(ValueError,
                           match="measure_from_profile fn must be finite"):
            measure_from_profile(lambda u: np.full(np.shape(u), np.inf),
                                 SolverConfig().grid_size)

    def test_noise_free_identity_toeplitz(self):
        one1 = lambda u: np.ones(np.shape(u))
        z = 0.5 + 1j
        H = measure_from_profile(one1, TIGHT.grid_size)
        (pi, pit), = converged(solve_noncentered_many(ZEROS2, 1.0, H, [z],
                                                      TIGHT))
        assert abs(pi.value - 1.0 / (1.0 - z)) < 1e-10
        assert abs(pit.value - 1.0 / (1.0 - z)) < 1e-10

    def test_symmetric_profile_swaps_kernels(self):
        # |Phi(u,t)| = |Phi(t,u)| makes the two coupled kernels equal
        h = FilterSequence2D({(0, 0): 1, (1, 1): 0.5})
        a = FilterSequence1D({0: 1, 1: 0.5, -1: 0.5})
        H = measure_from_profile(a.profile, TIGHT.grid_size)
        (pi, pit), = converged(solve_noncentered_many(h.profile, 1.0, H,
                                                      [0.7 + 0.6j], TIGHT))
        assert np.abs(pi.weights - pit.weights).max() < 1e-10

    def test_total_masses_agree_for_square_matrices(self):
        # both Gram sides of a square matrix share the spectrum, so the
        # two kernels carry the same total mass even when they differ
        a = FilterSequence1D({0: 1, 1: 0.5, -1: 0.5})
        H = measure_from_profile(a.profile, TIGHT.grid_size)
        (pi, pit), = converged(solve_noncentered_many(H_TEST.profile, 1.0, H,
                                                      [1j], TIGHT))
        assert abs(pi.value - pit.value) < 1e-9
        assert np.abs(pi.weights - pit.weights).max() > 1e-4  # kernels differ


class TestNonCentered:
    def test_zero_profile_direct_transform(self):
        H = AtomicMeasureH(u=np.array([0.2, 0.9]), lam=np.array([1.0, 4.0]))
        z = 0.1 + 0.7j
        (pi, _), = converged(solve_noncentered_many(ZEROS2, 1.0, H, [z],
                                                    TIGHT))
        direct = 0.5 / (1 - z) + 0.5 / (4 - z)
        assert abs(pi.value - direct) < 1e-10

    def test_lambda_zero_reduces_to_centered_constant_profile(self):
        H = measure_from_lambda(np.zeros(24))
        zs = [1j, 2j]
        pairs = converged(solve_noncentered_many(ONES, 1.0, H, zs, TIGHT))
        kernels = converged(solve_centered_many(ONES, 1.0, zs, TIGHT))
        for (pi, _), k in zip(pairs, kernels):
            assert abs(pi.value - k.value) < 1e-8

    def test_lambda_zero_reduces_to_centered_general_profile(self):
        # atoms placed on the quadrature nodes make the two discretized
        # systems share their fixed point exactly
        H = measure_from_profile(np.zeros_like, TIGHT.grid_size)
        zs = [1j, 0.5 + 2j]
        pairs = converged(solve_noncentered_many(H_TEST.profile, 1.0, H, zs,
                                                 TIGHT))
        kernels = converged(solve_centered_many(H_TEST.profile, 1.0, zs,
                                                TIGHT))
        for (pi, _), k in zip(pairs, kernels):
            assert abs(pi.value - k.value) < 1e-8

    def test_symbol_measure_matches_square(self):
        # at c = 1 the pair over the |psi|^2 measure solves the
        # square-Toeplitz system
        a = FilterSequence1D({0: 1, 1: 0.5, -1: 0.5})
        cfg = SolverConfig(grid_size=16, tolerance=1e-12, max_iterations=50000)
        x = (np.arange(16) + 0.5) / 16
        P = H_TEST.profile(x[:, None], x[None, :])
        H = measure_from_profile(a.profile, cfg.grid_size)
        zs = [1j, -0.5 + 0.3j]
        pairs = converged(solve_noncentered_many(H_TEST.profile, 1.0, H, zs,
                                                 cfg))
        for z, (pi, pit) in zip(zs, pairs):
            up, up_t = _square_update_reference(P, a.profile(x), z,
                                                pi.weights, pit.weights)
            assert np.abs(up - pi.weights).max() < 1e-10
            assert np.abs(up_t - pit.weights).max() < 1e-10

    def test_zero_padding_relation_for_thin_matrices(self):
        # with lambda == 0 the tilde transform is the zero-padded one:
        # ftilde = c f + (1 - c)(-1/z)
        H = measure_from_profile(np.zeros_like, 32)
        c = 0.4
        z = 0.8 + 1.2j
        (pi, pit), = converged(solve_noncentered_many(H_TEST.profile, c, H,
                                                      [z], TIGHT))
        assert abs(pit.value - (c * pi.value + (1 - c) * (-1 / z))) < 1e-10

    def test_tilde_support_bookkeeping(self):
        H = AtomicMeasureH(u=np.array([0.5]), lam=np.array([2.0]))
        c = 0.5
        cfg = SolverConfig(grid_size=16, tolerance=1e-12, max_iterations=50000)
        (pi, pit), = converged(solve_noncentered_many(ONES, c, H, [1j], cfg))
        assert len(pi.nodes) == 1
        assert len(pit.nodes) == 1 + 16
        assert pit.nodes[0] == pytest.approx(c * 0.5)
        assert np.all(pit.nodes[1:] >= c)
        # c = 1 leaves no tail component
        (_, pit1), = converged(solve_noncentered_many(ONES, 1.0, H, [1j],
                                                      cfg))
        assert len(pit1.nodes) == 1

    @pytest.mark.parametrize("c, tail", [(1.0, 0), (0.5, 8)])
    def test_one_profile_grid(self, c, tail):
        # the profile is evaluated once, on the atoms against every
        # pi_tilde node; c = 1 has no (1 - c) tail nodes
        shapes = []

        def profile(u, t):
            shapes.append(np.broadcast_shapes(np.shape(u), np.shape(t)))
            return H_TEST.profile(u, t)

        H = measure_from_profile(np.ones_like, 16)
        (pi, pit), = converged(solve_noncentered_many(
            profile, c, H, [1j], SolverConfig(grid_size=8)))
        assert shapes == [(16, 16 + tail)]
        assert len(pit.nodes) == 16 + tail

    def test_fixed_point_of_reference_update_with_tail(self):
        # c < 1, nonzero lambda and a non-constant profile: the returned
        # pair, atoms and (1 - c) tail together, solves the equations
        u = (np.arange(6) + 1) / 6
        H = AtomicMeasureH(u=u, lam=1.0 + 0.5 * np.cos(2 * np.pi * u))
        c, z = 0.5, 0.7 + 0.9j
        cfg = SolverConfig(grid_size=8, tolerance=1e-12, max_iterations=50000)
        (pi, pit), = converged(solve_noncentered_many(H_TEST.profile, c, H,
                                                      [z], cfg))
        tail = c + (1 - c) * (np.arange(8) + 0.5) / 8
        assert np.allclose(pit.nodes, np.concatenate([c * u, tail]))
        up, up_t = _noncentered_update_reference(H_TEST.profile, c, H, tail,
                                                 z, pi.weights, pit.weights)
        assert np.abs(up - pi.weights).max() < 1e-10
        assert np.abs(up_t - pit.weights).max() < 1e-10
        # the tail is coupled: it left its zero-coupling value
        assert abs(pit.weights[6:].sum() - (1 - c) * (-1 / z)) > 1e-3

    def test_invalid_measure(self):
        with pytest.raises(ValueError):
            AtomicMeasureH(u=np.array([1.5]), lam=np.array([1.0]))

    @pytest.mark.parametrize("atoms, message", [
        (dict(u=[0.25, 0.75], lam=[1.0]),
         "atoms require matching nonempty u/lam arrays"),
        (dict(u=[0.5], lam=[-1.0]),
         "atom lambda-coordinates must be nonnegative")],
        ids=["unequal_lengths", "negative_lambda"])
    def test_bad_atoms_rejected(self, atoms, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            AtomicMeasureH(**atoms)

    def test_aspect_ratio_above_one_rejected(self):
        with pytest.raises(ValueError,
                           match=r"^aspect ratio c must lie in \(0, 1\]$"):
            solve_noncentered_many(ONES, 1.5, measure_from_lambda(np.ones(4)),
                                   [1j])

    @pytest.mark.parametrize("name", ["u", "lam"])
    def test_non_finite_atoms_rejected(self, name):
        atoms = dict(u=np.array([0.5]), lam=np.array([1.0]))
        atoms[name] = np.array([np.nan])
        with pytest.raises(ValueError, match=f"atom {name} values"):
            AtomicMeasureH(**atoms)


class TestInformationPlusNoise:
    # a constant profile sigma2 and a constant diagonal a make the coupled
    # system the information-plus-noise model, whose transform is a root
    # of a cubic (tests/oracles.py)
    Z = [1j, 1 + 0.5j, 3 + 0.1j, -1 + 0.01j, 5 + 1e-3j]

    @pytest.mark.parametrize("sigma2, a", [(1.0, 1.0), (0.5, 2.0)])
    @pytest.mark.parametrize("c", [1.0, 0.5, 0.25])
    def test_matches_the_cubic(self, c, sigma2, a):
        h = FilterSequence2D({(0, 0): np.sqrt(sigma2)})
        H = measure_from_lambda(np.full(32, a))
        pairs = solve_noncentered_many(h.profile, c, H, self.Z,
                                       SolverConfig(tolerance=1e-13))
        for (pi, _), z in zip(pairs, self.Z):
            assert pi.converged
            assert abs(pi.value - info_plus_noise_stieltjes(
                z, c, sigma2, a)) <= 1e-12


class TestMeasureFromLambda:
    def test_zero_matrix(self):
        H = measure_from_lambda(np.zeros(4))
        assert np.allclose(H.u, [0.25, 0.5, 0.75, 1.0])
        assert np.all(H.lam == 0)

    def test_identity(self):
        H = measure_from_lambda([1, 1])
        assert np.allclose(H.u, [0.5, 1.0])
        assert np.allclose(H.lam, [1.0, 1.0])

    def test_symbol_diagonal_converges_to_lebesgue_image(self):
        # lambda-marginal ECDF of (1/N) sum delta_{|psi_n(k/n)|^2} vs the
        # pushforward of Lebesgue measure under |psi|^2, sampled finely
        a = FilterSequence1D({0: 1, 1: 0.5, -1: 0.5})
        N = 4096
        diag = a.symbol(np.arange(N) / N)
        H = measure_from_lambda(diag)
        fine = np.abs(a.symbol((np.arange(400000) + 0.5) / 400000)) ** 2
        xs = np.linspace(0, fine.max() + 0.1, 500)
        emp = np.searchsorted(np.sort(H.lam), xs, side="right") / N
        ref = np.searchsorted(np.sort(fine), xs, side="right") / len(fine)
        assert np.abs(emp - ref).max() < 0.02
        # u-marginal is exactly uniform on {1/N, ..., 1}
        assert np.allclose(H.u, (np.arange(N) + 1) / N)


class TestKernelAxioms:
    def test_converged_kernels_pass(self):
        kernels = converged(solve_centered_many(
            H_TEST.profile, 1.0, [1j, 0.3 + 0.5j, -2 + 0.1j], TIGHT))
        assert all(verify_kernel_axioms(k).passed for k in kernels)

    def test_hand_built_negative_imag_fails(self):
        nodes = (np.arange(8) + 0.5) / 8
        w = np.full(8, 0.1 - 0.05j)
        k = StieltjesKernel(z=1j, nodes=nodes, weights=w)
        rep = verify_kernel_axioms(k)
        assert not rep.positive_imag_ok
        assert not rep.passed

    def test_point_mass_saturates_bound(self):
        # f(z) = -1/z at z = iy: |f| = 1/y, equality in the bound
        y = 3.0
        nodes = (np.arange(8) + 0.5) / 8
        w = np.full(8, (-1.0 / (1j * y)) / 8)
        k = StieltjesKernel(z=1j * y, nodes=nodes, weights=w)
        rep = verify_kernel_axioms(k)
        assert rep.passed
        assert rep.max_bound_excess == pytest.approx(0.0, abs=1e-12)

    def test_one_negative_node_fails(self):
        # a point mass at z = i with one node pushed below the axis: the
        # sum over all nodes stays positive and within the bound
        w = np.full(64, 1j / 64)
        w[5] -= 0.05j
        k = StieltjesKernel(z=1j, nodes=(np.arange(64) + 0.5) / 64,
                            weights=w)
        rep = verify_kernel_axioms(k)
        assert not rep.positive_imag_ok
        assert not rep.bound_ok
        assert rep.min_imag == pytest.approx(1 / 64 - 0.05)
        assert rep.max_bound_excess == pytest.approx(0.05 - 2 / 64)

    def test_extremes_are_exact(self):
        rng = np.random.default_rng(24)
        m, z = 40, 0.7 + 0.4j
        w = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / m
        k = StieltjesKernel(z=z, nodes=(np.arange(m) + 0.5) / m, weights=w)
        rep = verify_kernel_axioms(k)
        g = rng.random((2000, m))
        assert rep.min_imag == pytest.approx(((w.imag < 0) * w).sum().imag)
        assert ((g @ w).imag >= rep.min_imag).all()
        assert rep.min_imag_z == pytest.approx(
            ((z * w).imag < 0) @ (z * w).imag)
        assert ((z * (g @ w)).imag >= rep.min_imag_z).all()
        total = rep.max_bound_excess + 1 / z.imag
        assert total == pytest.approx(abs(np.conj(w) / np.abs(w) @ w))
        unit = g * np.exp(2j * np.pi * rng.random((2000, m)))
        assert (np.abs(unit @ w) <= total).all()


class TestMonteCarloAgreement:
    def test_empirical_transform_approaches_solution(self):
        # pooled empirical transforms drift toward the solved f(z) as the
        # matrix grows
        from gramfield.matgen import NoiseSpec, build_field, sample_noise
        from gramfield.spectra import empirical_stieltjes
        z = 1j
        f_limit = converged(solve_centered_many(H_TEST.profile, 1.0, [z],
                                                TIGHT))[0].value
        errs = {}
        for size in (32, 128):
            vals = []
            for s in range(20):
                noise = sample_noise(size, size, NoiseSpec(seed=s), margin=1)
                zm = build_field(H_TEST, noise)
                from gramfield.spectra import gram_spectrum
                vals.append(empirical_stieltjes(gram_spectrum(zm), z))
            errs[size] = abs(np.mean(vals) - f_limit)
        assert errs[128] < errs[32]
        assert errs[128] < 0.01

    def test_tilde_transform_matches_right_gram(self):
        # ftilde is checked against right-Gram spectra: for a thin matrix
        # the right side carries (n - N) extra zeros
        from gramfield.matgen import (NoiseSpec, build_field,
                                      build_pseudo_diagonal, sample_noise)
        from gramfield.spectra import empirical_stieltjes, gram_spectrum
        from gramfield.transforms import fourier_matrix
        N, n = 64, 128
        c = N / n
        lam_diag = 0.8 * np.ones(N)
        lam = build_pseudo_diagonal(lam_diag, N, n)
        H = measure_from_lambda(lam_diag)
        z = 1j
        (pi, pit), = converged(solve_noncentered_many(H_TEST.profile, c, H,
                                                      [z], TIGHT))
        # A = F_N^* Lambda F_n so that F_N A F_n^* is pseudo-diagonal
        a_entries = fourier_matrix(N).conj().T @ lam \
            @ fourier_matrix(n)
        vals_left, vals_right = [], []
        for s in range(40):
            noise = sample_noise(N, n, NoiseSpec(seed=s), margin=1)
            zm = build_field(H_TEST, noise)
            total = zm + a_entries
            vals_left.append(empirical_stieltjes(gram_spectrum(total), z))
            vals_right.append(empirical_stieltjes(
                gram_spectrum(total.conj().T), z))
        assert abs(np.mean(vals_left) - pi.value) < 0.02
        assert abs(np.mean(vals_right) - pit.value) < 0.02


class TestEndToEndRectangular:
    def test_rectangular_centered_esd(self):
        # c = 1/2: pooled ESD against the solved limit, plus a wrong-c
        # control showing the comparison has discriminating power
        from gramfield.matgen import NoiseSpec, build_field, sample_noise
        from gramfield.spectra import (DistributionFunction,
                                       default_inversion_grid,
                                       invert_stieltjes_to_cdf,
                                       kolmogorov_distance)
        N, n = 128, 256
        vals = []
        for s in range(20):
            noise = sample_noise(N, n, NoiseSpec(seed=s), margin=H_TEST.radius)
            z = build_field(H_TEST, noise)
            from gramfield.spectra import gram_spectrum
            vals.append(gram_spectrum(z))
        e = DistributionFunction.ecdf(np.concatenate(vals))
        grid = default_inversion_grid(e)
        cfg = SolverConfig(tolerance=1e-7, max_iterations=100000, damping=0.5)
        ks = solve_centered_many(H_TEST.profile, N / n, grid + 1e-3j, cfg)
        lim = invert_stieltjes_to_cdf(
            np.array([k.value for k in ks]), grid, 1e-3)
        assert kolmogorov_distance(e, lim) < 0.02
        ks_bad = solve_centered_many(H_TEST.profile, 1.0, grid + 1e-3j, cfg)
        lim_bad = invert_stieltjes_to_cdf(
            np.array([k.value for k in ks_bad]), grid, 1e-3)
        assert kolmogorov_distance(e, lim_bad) > 0.1

    def test_noncentered_pseudodiagonal_esd(self):
        # two-level diagonal added in the Fourier domain; the raw-field
        # Gram ESD follows the non-centered solver's limit
        from gramfield.matgen import NoiseSpec, build_field, sample_noise
        from gramfield.spectra import (DistributionFunction,
                                       default_inversion_grid, gram_spectrum,
                                       invert_stieltjes_to_cdf,
                                       kolmogorov_distance)
        from gramfield.transforms import fourier_matrix
        N = n = 128
        diag = np.where(np.arange(N) < N // 2, 1.0, 2.0)
        lam = build_pseudo_diagonal(diag, N, n)
        H = measure_from_lambda(diag)
        a_entries = fourier_matrix(N).conj().T @ lam \
            @ fourier_matrix(n)
        vals = []
        for s in range(20):
            noise = sample_noise(N, n, NoiseSpec(seed=s), margin=H_TEST.radius)
            z = build_field(H_TEST, noise)
            vals.append(gram_spectrum(z + a_entries))
        e = DistributionFunction.ecdf(np.concatenate(vals))
        grid = default_inversion_grid(e)
        cfg = SolverConfig(tolerance=1e-7, max_iterations=100000, damping=0.5)
        pairs = solve_noncentered_many(H_TEST.profile, 1.0, H, grid + 1e-3j,
                                       cfg)
        lim = invert_stieltjes_to_cdf(
            np.array([p[0].value for p in pairs]), grid, 1e-3)
        assert kolmogorov_distance(e, lim) < 0.02


class TestLimitingCdf:
    def test_mp_cdf_recovery(self):
        grid = np.arange(-1.0, 5.0, 1e-3)
        ks = solve_centered_many(
            ONES, 1.0, grid + 1e-3j,
            SolverConfig(tolerance=1e-8, max_iterations=100000, damping=0.5))
        assert all(k.converged for k in ks)
        cdf = invert_stieltjes_to_cdf(np.array([k.value for k in ks]), grid, eta=1e-3)
        xs = np.linspace(0, 4.5, 300)
        oracle = np.array([mp_cdf(x, 1.0) for x in xs])
        assert np.abs(cdf.eval(xs) - oracle).max() < 0.02
        assert 0.98 <= cdf.fs[-1] <= 1.0

    def test_point_mass_function_input(self):
        grid = np.arange(-1.0, 1.0, 1e-3)
        cdf = invert_stieltjes_to_cdf(-1.0 / (grid + 1e-3j), grid, eta=1e-3)
        assert cdf.eval(0.1) - cdf.eval(-0.1) >= 0.99


def test_write_solver_csv_golden_text(tmp_path):
    nodes = np.array([0.5])
    kernels = [
        StieltjesKernel(z=complex(-0.0, 1 / 3), nodes=nodes,
                        weights=np.array([complex(0.1, 5e-324)]),
                        residual=1e300, iterations=42),
        StieltjesKernel(z=complex(1e300, 0.1), nodes=nodes,
                        weights=np.array([complex(-0.0, 1 / 3)]),
                        residual=5e-324, iterations=100000)]
    path = tmp_path / "s.csv"
    write_solver_csv(kernels, path)
    assert path.read_text() == (
        "re_z,im_z,re_f,im_f,residual,iterations\n"
        "-0,0.33333333333333331,0.10000000000000001,"
        "4.9406564584124654e-324,1.0000000000000001e+300,42\n"
        "1.0000000000000001e+300,0.10000000000000001,0,"
        "0.33333333333333331,4.9406564584124654e-324,100000\n")


@pytest.mark.parametrize("solve", [
    lambda c: solve_centered_many(ONES, c, [1j]),
    lambda c: solve_noncentered_many(ONES, c, measure_from_lambda(np.ones(4)),
                                     [1j])],
    ids=["centered", "noncentered"])
def test_aspect_ratio_is_a_number(solve):
    # c = True used to solve as c = 1, and c = "1" raised a bare TypeError
    for bad in (True, "1"):
        with pytest.raises(ValueError, match=r"^c must be a number, got "):
            solve(bad)
    (np_result,), (result,) = converged(solve(np.float64(0.5))), solve(0.5)
    if isinstance(result, tuple):
        np_result, result = np_result[0], result[0]
    assert np_result.value == result.value
