"""Acceptance suite: one test per top-level criterion, stated tolerances.

Each test prints a PASS/FAIL line (run with ``pytest -s`` to see them
live).  The criteria that solve for kernels take them from cached
helpers, which criterion 8 calls too: it pools the converged kernels
and re-verifies them against the Stieltjes-kernel axioms, whether it
runs after the other criteria or alone.

Criterion 7 covers the real case.  Its block-covariance clause builds
the linear map from real noise to the real congruence Q_N Zt Q_n^T and
checks its exact covariance: zero across the cos/sin frequency blocks,
the symmetrized grid (|Phi(f1, f2)|^2 + |Phi(f1, -f2)|^2)/2 on the
diagonal (each cos/sin row pair mixes the mirror frequencies +-f), and
a clear correlation within a block, so the entries are not independent.
Its variance clause checks sampled variances against the same grid, and
its ESD clause checks the real-noise spectrum against the |Phi|^2
limit, the one real_case runs solve.
"""

import functools
import time

import numpy as np

import gramfield as gf
from oracles import mp_stieltjes
from test_limit_solver import _square_update_reference

H2 = gf.FilterSequence2D({(0, 0): 1, (1, 0): 0.5, (0, 1): 0.25})
A1 = gf.FilterSequence1D({0: 1, 1: 0.5, -1: 0.5})
SEEDS = list(range(20))
ONES = lambda u, t: np.ones(np.broadcast(u, t).shape)

SWEEP_CFG = gf.SolverConfig(grid_size=64, tolerance=1e-7,
                            max_iterations=100000, damping=0.5)
TIGHT_CFG = gf.SolverConfig(grid_size=64, tolerance=1e-12,
                            max_iterations=50000)

MP_POINTS = [(1j, 1e-6), (2j, 1e-6), (-1.0 + 1e-8j, 1e-4)]  # (z, tol)
REDUCTION_ZS = [1j, 2j, 0.5 + 0.3j]


def report(num, name, ok, detail=""):
    print(f"[ACCEPTANCE {num}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")


def pooled_ecdf(h, N, n, seeds, *, real=False, extra=None):
    dist = "real_standard" if real else "complex_standard"
    vals = []
    for s in seeds:
        noise = gf.sample_noise(N, n, gf.NoiseSpec(dist, s), margin=h.radius)
        z = gf.build_field(h, noise)
        m = z if extra is None else np.asarray(z) + extra
        vals.append(gf.gram_spectrum(m))
    return gf.DistributionFunction.ecdf(np.concatenate(vals))


# The kernel-producing steps of criteria 1, 2, 5, 6 and 7.  Each runs
# once per session; a step that its criterion times returns its own
# runtime, so the criterion's runtime does not depend on the test order.


@functools.cache
def mp_oracle_kernels():
    t0 = time.monotonic()
    kernels = gf.solve_centered_many(ONES, 1.0, [z for z, _ in MP_POINTS],
                                     TIGHT_CFG)
    elapsed = time.monotonic() - t0
    assert all(k.converged for k in kernels)
    return kernels, elapsed


@functools.cache
def centered_sweep():
    """Pooled 256^2 spectrum, its inversion grid, the solver sweep over
    it, and the runtime of the three."""
    t0 = time.monotonic()
    e256 = pooled_ecdf(H2, 256, 256, SEEDS)
    grid = gf.default_inversion_grid(e256)
    kernels = gf.solve_centered_many(H2.profile, 1.0, grid + 1e-3j, SWEEP_CFG)
    return e256, grid, kernels, time.monotonic() - t0


@functools.cache
def square_sweep():
    """Pooled spectrum of field plus Toeplitz(A1) at n = 256, its grid,
    and the (f, f_tilde) sweep over it."""
    pooled = pooled_ecdf(H2, 256, 256, SEEDS,
                         extra=gf.build_toeplitz(A1, 256))
    grid = gf.default_inversion_grid(pooled)
    # the Toeplitz part is the pseudo-diagonal model at c = 1, diagonal psi
    H_sym = gf.measure_from_profile(A1.profile, SWEEP_CFG.grid_size)
    pairs = gf.solve_noncentered_many(H2.profile, 1.0, H_sym,
                                      grid + 1e-3j, SWEEP_CFG)
    return pooled, grid, pairs


@functools.cache
def lambda_zero_solves():
    """Per z: lambda = 0 non-centered and centered solves, flat profile
    then H2's."""
    H_zero = gf.measure_from_lambda(np.zeros(TIGHT_CFG.grid_size))
    H_zero_nodes = gf.measure_from_profile(np.zeros_like, TIGHT_CFG.grid_size)
    zs = REDUCTION_ZS
    solves = (
        [pi for pi, _ in gf.solve_noncentered_many(ONES, 1.0, H_zero, zs,
                                                   TIGHT_CFG)],
        gf.solve_centered_many(ONES, 1.0, zs, TIGHT_CFG),
        [pi for pi, _ in gf.solve_noncentered_many(H2.profile, 1.0,
                                                   H_zero_nodes, zs,
                                                   TIGHT_CFG)],
        gf.solve_centered_many(H2.profile, 1.0, zs, TIGHT_CFG))
    assert all(k.converged for kernels in solves for k in kernels)
    return list(zip(*solves))


@functools.cache
def square_symbol_solves():
    """Per z: the c = 1 (f, f_tilde) solve with the symbol-generated
    measure of A1."""
    H_sym = gf.measure_from_profile(A1.profile, TIGHT_CFG.grid_size)
    pairs = gf.solve_noncentered_many(H2.profile, 1.0, H_sym, REDUCTION_ZS,
                                      TIGHT_CFG)
    assert all(pi.converged for pi, _ in pairs)
    return pairs


@functools.cache
def real_sweep():
    """Pooled real-noise 256^2 spectrum, its grid, and the |Phi|^2 sweep."""
    pooled = pooled_ecdf(H2, 256, 256, SEEDS, real=True)
    grid = gf.default_inversion_grid(pooled)
    kernels = gf.solve_centered_many(H2.profile, 1.0,
                                     grid + 1e-3j, SWEEP_CFG)
    return pooled, grid, kernels


def pooled_kernels():
    """(label, kernel) for the converged kernels of those steps."""
    square_pairs = square_sweep()[2][::100]
    groups = [
        ("mp_oracle", mp_oracle_kernels()[0]),
        ("centered_sweep", centered_sweep()[2][::100]),
        ("square_sweep", [p[0] for p in square_pairs]),
        ("square_sweep_tilde", [p[1] for p in square_pairs]),
        ("noncentered_lam0", [k for pi, _, pi2, _ in lambda_zero_solves()
                              for k in (pi, pi2)]),
        ("noncentered_symbol", [k for pair in square_symbol_solves()
                                for k in pair]),
        ("real_sweep", real_sweep()[2][::100]),
    ]
    return [(label, k) for label, kernels in groups for k in kernels
            if k.converged]


def test_criterion_1_marchenko_pastur_oracle():
    kernels, elapsed = mp_oracle_kernels()
    errs = [abs(k.value - mp_stieltjes(z, 1.0))
            for k, (z, _) in zip(kernels, MP_POINTS)]
    ok = (all(e < tol for e, (_, tol) in zip(errs, MP_POINTS))
          and elapsed < 1.0)
    report(1, "Marchenko-Pastur oracle", ok,
           f"errors={[f'{e:.2e}' for e in errs]} runtime={elapsed:.2f}s")
    for e, (_, tol) in zip(errs, MP_POINTS):
        assert e < tol
    assert elapsed < 1.0


def test_criterion_2_centered_end_to_end():
    e256, grid, kernels, sweep_s = centered_sweep()
    t0 = time.monotonic()
    e128 = pooled_ecdf(H2, 128, 128, SEEDS)
    f_vals = np.array([k.value for k in kernels])
    limit = gf.invert_stieltjes_to_cdf(f_vals, grid, eta=1e-3)
    k256 = gf.kolmogorov_distance(e256, limit)
    k128 = gf.kolmogorov_distance(e128, limit)
    elapsed = sweep_s + time.monotonic() - t0
    ok = k256 < 0.05 and k128 > k256 and elapsed < 120.0
    report(2, "centered end-to-end", ok,
           f"K256={k256:.4f} K128={k128:.4f} runtime={elapsed:.1f}s")
    assert k256 < 0.05
    assert k128 > k256
    assert elapsed < 120.0


def test_criterion_3_fourier_congruence():
    N, n, S = 64, 96, 200
    F_N, F_n = gf.fourier_matrix(N), gf.fourier_matrix(n)

    noise = gf.sample_noise(N, n, gf.NoiseSpec("complex_standard", 0),
                            margin=H2.radius)
    zt = gf.build_periodized_field(H2, noise)
    y = F_N @ zt @ F_n.conj().T
    s_direct = gf.gram_spectrum(zt)
    s_conj = gf.gram_spectrum(y)
    spec_gap = np.abs(s_direct - s_conj).max()
    spec_ok = spec_gap <= 1e-9 * max(1.0, s_direct.max())

    acc = np.zeros((N, n))
    for s in range(S):
        noise = gf.sample_noise(N, n, gf.NoiseSpec("complex_standard", s),
                                margin=H2.radius)
        zt = gf.build_periodized_field(H2, noise)
        acc += np.abs(F_N @ zt @ F_n.conj().T) ** 2
    mean = acc / S * n
    grid = gf.variance_profile_grid(H2, N, n)
    within = np.abs(mean - grid) <= 3 * grid / np.sqrt(S)
    var_ok = within.mean() >= 0.99

    ok = spec_ok and var_ok
    report(3, "Fourier congruence", ok,
           f"spec_gap={spec_gap:.2e} var_within_3sigma={within.mean():.4f}")
    assert spec_ok
    assert var_ok


def test_criterion_4_coupling_statistics():
    means = []
    for size in (32, 128):
        alphas = []
        for s in range(50):
            noise = gf.sample_noise(size, size,
                                    gf.NoiseSpec("complex_standard", s),
                                    margin=H2.radius)
            z = gf.build_field(H2, noise)
            zt = gf.build_periodized_field(H2, noise)
            alpha, _, _ = gf.trace_stats(z, zt)
            alphas.append(alpha)
        means.append(float(np.mean(alphas)))
    alpha_ok = means[1] <= 0.5 * means[0]

    bai_ok = True
    checked = 0
    for s in range(400):
        a = gf.sample_noise(32, 32, gf.NoiseSpec("complex_standard", 2 * s))
        b = gf.sample_noise(32, 32, gf.NoiseSpec("complex_standard", 2 * s + 1))
        lhs, rhs = gf.bai_bound(a, b)
        bai_ok = bai_ok and lhs <= rhs
        checked += 1
    for s in range(100):
        noise = gf.sample_noise(64, 64, gf.NoiseSpec("complex_standard", s),
                                margin=H2.radius)
        z = gf.build_field(H2, noise)
        zt = gf.build_periodized_field(H2, noise)
        lhs, rhs = gf.bai_bound(z, zt)
        bai_ok = bai_ok and lhs <= rhs
        checked += 1

    ok = alpha_ok and bai_ok and checked >= 500
    report(4, "coupling statistics", ok,
           f"alpha32={means[0]:.4f} alpha128={means[1]:.4f} "
           f"bai_pairs={checked}")
    assert alpha_ok
    assert bai_ok
    assert checked >= 500


def test_criterion_5_square_toeplitz_pipeline():
    def trace_gap(nn):
        A = gf.build_toeplitz(A1, nn)
        C = gf.build_circulant(A1, nn)
        return float(np.sum(np.abs(A - C) ** 2)) / nn

    g128, g512 = trace_gap(128), trace_gap(512)
    gap_ok = g512 <= 0.5 * g128

    n = 256
    C = gf.build_circulant(A1, n)
    F = gf.fourier_matrix(n)
    D = F @ C @ F.conj().T
    expected_diag = gf.circulant_eigenvalues(A1, n)
    off = D.copy()
    np.fill_diagonal(off, 0.0)
    diag_err = max(np.abs(off).max(),
                   np.abs(np.diagonal(D) - expected_diag).max())
    diag_ok = diag_err < 1e-10

    pooled, grid, pairs = square_sweep()
    f_vals = np.array([p[0].value for p in pairs])
    limit = gf.invert_stieltjes_to_cdf(f_vals, grid, eta=1e-3)
    K = gf.kolmogorov_distance(pooled, limit)
    esd_ok = K < 0.06

    ok = gap_ok and diag_ok and esd_ok
    report(5, "square Toeplitz pipeline", ok,
           f"gap128={g128:.5f} gap512={g512:.5f} diag_err={diag_err:.2e} "
           f"K={K:.4f}")
    assert gap_ok
    assert diag_ok
    assert esd_ok


def test_criterion_6_noncentered_reductions():
    zs = REDUCTION_ZS

    # (a) lambda = 0, c = 1 degenerates to the centered equation
    err_a = max(max(abs(pi.value - k.value), abs(pi2.value - k2.value))
                for pi, k, pi2, k2 in lambda_zero_solves())

    # (b) zero profile reproduces the direct transform of the atoms
    zeros2 = lambda u, t: np.zeros(np.broadcast(u, t).shape)
    H_atoms = gf.AtomicMeasureH(u=np.array([0.25, 0.75]),
                                lam=np.array([1.0, 4.0]))
    pairs = gf.solve_noncentered_many(zeros2, 1.0, H_atoms, zs, TIGHT_CFG)
    assert all(pi.converged for pi, _ in pairs)
    err_b = max(abs(pi.value - (0.5 / (1 - z) + 0.5 / (4 - z)))
                for z, (pi, _) in zip(zs, pairs))

    # (c) c = 1 with the symbol-generated measure solves the square system
    x = (np.arange(TIGHT_CFG.grid_size) + 0.5) / TIGHT_CFG.grid_size
    P = H2.profile(x[:, None], x[None, :])
    err_c = 0.0
    for z, (pi, pit) in zip(zs, square_symbol_solves()):
        up, up_t = _square_update_reference(P, A1.profile(x), z,
                                            pi.weights, pit.weights)
        err_c = max(err_c, np.abs(up - pi.weights).max(),
                    np.abs(up_t - pit.weights).max())

    ok = err_a < 1e-8 and err_b < 1e-10 and err_c < 1e-8
    report(6, "non-centered reductions", ok,
           f"err_centered={err_a:.2e} err_atoms={err_b:.2e} "
           f"err_square={err_c:.2e}")
    assert err_a < 1e-8
    assert err_b < 1e-10
    assert err_c < 1e-8


def _real_congruence_map(h, N, n):
    """Matrix of the linear map U -> Q_N Zt Q_n^T on row-major N x n
    sheets, built column by column from the unit sheets."""
    Q_N, Q_n = gf.real_orthogonal_matrix(N), gf.real_orthogonal_matrix(n)
    units = np.eye(N * n).reshape(N * n, N, n)
    return np.stack([
        (Q_N @ gf.build_periodized_field(h, e) @ Q_n.T).ravel()
        for e in units], axis=1)


def test_criterion_7_real_case_block_covariance_and_esd():
    details = []
    for N, n in ((16, 12), (7, 9)):
        m = _real_congruence_map(H2, N, n)
        cov = m @ m.T  # the noise has i.i.d. N(0, 1) entries
        # cos/sin frequency block of each entry: (l + 1) // 2 per axis
        block = ((np.arange(N)[:, None] + 1) // 2 * n
                 + (np.arange(n) + 1) // 2).ravel()
        same = block[:, None] == block[None, :]
        across = np.abs(cov[~same]).max()
        grid_err = np.abs(np.diagonal(cov).reshape(N, n) * n
                          - gf.symmetrized_variance_grid(H2, N, n)).max()
        sd = np.sqrt(np.diagonal(cov))
        corr = np.abs(cov) / np.outer(sd, sd)
        within = corr[same & ~np.eye(N * n, dtype=bool)].max()
        details.append((N, n, across, grid_err, within))
    # independent across blocks, variances on the symmetrized grid, and
    # correlated within a block: H2 has |Phi(s, t)| != |Phi(s, -t)|
    block_ok = all(across <= 1e-14 and grid_err <= 1e-12 and within > 0.1
                   for _, _, across, grid_err, within in details)

    # the real-noise limit is the |Phi|^2 one, as in the complex case
    pooled, grid, kernels = real_sweep()
    f_vals = np.array([k.value for k in kernels])
    limit = gf.invert_stieltjes_to_cdf(f_vals, grid, eta=1e-3)
    K = gf.kolmogorov_distance(pooled, limit)
    esd_ok = K < 0.02

    ok = block_ok and esd_ok
    report(7, "real case (block covariance + ESD)", ok, " ".join(
        f"{N}x{n}: cross_block_cov={across:.1e} grid_err={grid_err:.1e} "
        f"in_block_corr={within:.3f}"
        for N, n, across, grid_err, within in details) + f" K={K:.4f}")
    assert block_ok, details
    assert esd_ok


def test_criterion_7_real_case_variance_symmetrized_grid():
    # The expected grid is the exact real-congruence variance: each cos/sin
    # row pair averages the mirror values |Phi(f1,f2)|^2 and |Phi(f1,-f2)|^2.
    N = n = 128
    S = 200
    Q_N, Q_n = gf.real_orthogonal_matrix(N), gf.real_orthogonal_matrix(n)
    acc = np.zeros((N, n))
    for s in range(S):
        noise = gf.sample_noise(N, n, gf.NoiseSpec("real_standard", s),
                                margin=H2.radius)
        zt = gf.build_periodized_field(H2, noise)
        acc += (Q_N @ zt @ Q_n.T) ** 2
    mean = acc / S * n
    grid = gf.symmetrized_variance_grid(H2, N, n)
    within = np.abs(mean - grid) <= 3 * np.sqrt(2.0 / S) * grid
    ok = within.mean() >= 0.99
    report(7, "real case (variance vs symmetrized grid)", ok,
           f"var_within_3sigma={within.mean():.4f} against the "
           f"mirror-average grid (|Phi(f1,f2)|^2 + |Phi(f1,-f2)|^2)/2")
    assert ok, (
        "per-entry variance does not follow the mirror-average grid "
        "(|Phi(f1,f2)|^2 + |Phi(f1,-f2)|^2)/2: "
        f"only {within.mean():.1%} of entries sit within 3 sigma")


def test_criterion_8_kernel_axioms():
    kernels = pooled_kernels()
    assert kernels, "the criteria produced no converged kernels"
    bad = []
    for label, k in kernels:
        rep = gf.verify_kernel_axioms(k)
        if not rep.passed:
            bad.append((label, k.z))
    axioms_ok = not bad

    # -i y f(i y) -> 1 at y = 1e3 for every solver family used above
    y = 1e3
    tail_kernels = {
        "mp": gf.solve_centered_many(ONES, 1.0, [1j * y], TIGHT_CFG)[0],
        "centered": gf.solve_centered_many(H2.profile, 1.0, [1j * y],
                                           TIGHT_CFG)[0],
        "noncentered": gf.solve_noncentered_many(
            H2.profile, 1.0,
            gf.measure_from_profile(A1.profile, 64), [1j * y],
            TIGHT_CFG)[0][0],
        # real_case runs solve the "centered" problem and square_toeplitz
        # runs the "noncentered" one at c = 1, so neither has an entry
    }
    assert all(k.converged for k in tail_kernels.values())
    tail_errs = {name: abs(-1j * y * k.value - 1.0)
                 for name, k in tail_kernels.items()}
    tail_ok = all(e < 1e-2 for e in tail_errs.values())

    ok = axioms_ok and tail_ok
    report(8, "kernel axioms", ok,
           f"kernels_checked={len(kernels)} violations={len(bad)} "
           f"max_tail_err={max(tail_errs.values()):.2e}")
    assert axioms_ok, f"kernel axiom violations: {bad[:5]}"
    assert tail_ok
