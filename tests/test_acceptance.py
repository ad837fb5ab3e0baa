"""Acceptance suite: one test per top-level criterion, stated tolerances.

Each test prints a PASS/FAIL line (run with ``pytest -s`` to see them
live).  Converged kernels produced along the way are pooled and
re-verified against the Stieltjes-kernel axioms at the end.

The real-case per-entry variance clause of criterion 7 checks the
sampled variances against the exact variance of the real congruence,
the symmetrized grid (|Phi(f1, f2)|^2 + |Phi(f1, -f2)|^2)/2: each cos/sin
row pair mixes the mirror frequencies +-f.  Its ESD clause checks the
real-noise spectrum against the |Phi|^2 limit, the one real_case runs
solve.
"""

import time

import numpy as np

import gramfield as gf
from oracles import mp_stieltjes

H2 = gf.FilterSequence2D({(0, 0): 1, (1, 0): 0.5, (0, 1): 0.25})
A1 = gf.FilterSequence1D({0: 1, 1: 0.5, -1: 0.5})
SEEDS = list(range(20))
ONES = lambda u, t: np.ones(np.broadcast(u, t).shape)

SWEEP_CFG = gf.SolverConfig(grid_size=64, tolerance=1e-7,
                            max_iterations=100000, damping=0.5)
TIGHT_CFG = gf.SolverConfig(grid_size=64, tolerance=1e-12,
                            max_iterations=50000)

KERNELS = []  # (label, StieltjesKernel) pooled for criterion 8


def report(num, name, ok, detail=""):
    print(f"[ACCEPTANCE {num}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")


def pooled_spectrum(h, N, n, seeds, *, real=False, extra=None):
    dist = "real_standard" if real else "complex_standard"
    vals = []
    for s in seeds:
        noise = gf.sample_noise(N, n, gf.NoiseSpec(dist, s), margin=h.radius)
        z = gf.build_field(h, noise)
        m = z if extra is None else np.asarray(z) + extra
        vals.append(gf.gram_spectrum(m).eigenvalues)
    v = np.sort(np.concatenate(vals))
    return gf.EmpiricalSpectrum(eigenvalues=v)


def keep_kernels(label, kernels):
    for k in kernels:
        if k.converged:
            KERNELS.append((label, k))


def test_criterion_1_marchenko_pastur_oracle():
    points = [(1j, 1e-6), (2j, 1e-6), (-1.0 + 1e-8j, 1e-4)]
    t0 = time.monotonic()
    kernels = [gf.solve_centered(ONES, 1.0, z, TIGHT_CFG) for z, _ in points]
    elapsed = time.monotonic() - t0
    errs = [abs(k.value - mp_stieltjes(z, 1.0))
            for k, (z, _) in zip(kernels, points)]
    ok = all(e < tol for e, (_, tol) in zip(errs, points)) and elapsed < 1.0
    report(1, "Marchenko-Pastur oracle", ok,
           f"errors={[f'{e:.2e}' for e in errs]} runtime={elapsed:.2f}s")
    keep_kernels("mp_oracle", kernels)
    for e, (_, tol) in zip(errs, points):
        assert e < tol
    assert elapsed < 1.0


def test_criterion_2_centered_end_to_end():
    t0 = time.monotonic()
    sym = gf.SpectralSymbol(H2)
    e256 = pooled_spectrum(H2, 256, 256, SEEDS)
    e128 = pooled_spectrum(H2, 128, 128, SEEDS)
    grid = gf.default_inversion_grid(e256)
    kernels = gf.solve_centered_many(sym.profile, 1.0, grid + 1e-3j, SWEEP_CFG)
    f_vals = np.array([k.value for k in kernels])
    limit = gf.invert_stieltjes_to_cdf(f_vals, grid, eta=1e-3)
    k256 = gf.kolmogorov_distance(e256.ecdf(), limit)
    k128 = gf.kolmogorov_distance(e128.ecdf(), limit)
    elapsed = time.monotonic() - t0
    ok = k256 < 0.05 and k128 > k256 and elapsed < 120.0
    report(2, "centered end-to-end", ok,
           f"K256={k256:.4f} K128={k128:.4f} runtime={elapsed:.1f}s")
    keep_kernels("centered_sweep", kernels[::100])
    assert k256 < 0.05
    assert k128 > k256
    assert elapsed < 120.0


def test_criterion_3_fourier_congruence():
    N, n, S = 64, 96, 200
    sym = gf.SpectralSymbol(H2)
    F_N, F_n = gf.fourier_matrix(N), gf.fourier_matrix(n)

    noise = gf.sample_noise(N, n, gf.NoiseSpec("complex_standard", 0),
                            margin=H2.radius)
    zt = gf.build_periodized_field(H2, noise)
    y = gf.congruence(F_N, zt, F_n)
    s_direct = gf.gram_spectrum(zt).eigenvalues
    s_conj = gf.gram_spectrum(y).eigenvalues
    spec_gap = np.abs(s_direct - s_conj).max()
    spec_ok = spec_gap <= 1e-9 * max(1.0, s_direct.max())

    acc = np.zeros((N, n))
    for s in range(S):
        noise = gf.sample_noise(N, n, gf.NoiseSpec("complex_standard", s),
                                margin=H2.radius)
        zt = gf.build_periodized_field(H2, noise)
        acc += np.abs(gf.congruence(F_N, zt, F_n)) ** 2
    mean = acc / S * n
    grid = gf.variance_profile_grid(sym, N, n)
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
    sym = gf.SpectralSymbol(H2)
    sym1 = gf.SpectralSymbol(A1)

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

    A = gf.build_toeplitz(A1, n)
    pooled = pooled_spectrum(H2, n, n, SEEDS, extra=A)
    grid = gf.default_inversion_grid(pooled)
    pairs = gf.solve_square_many(sym.profile, sym1.profile,
                                 grid + 1e-3j, SWEEP_CFG)
    f_vals = np.array([p[0].value for p in pairs])
    limit = gf.invert_stieltjes_to_cdf(f_vals, grid, eta=1e-3)
    K = gf.kolmogorov_distance(pooled.ecdf(), limit)
    esd_ok = K < 0.06

    ok = gap_ok and diag_ok and esd_ok
    report(5, "square Toeplitz pipeline", ok,
           f"gap128={g128:.5f} gap512={g512:.5f} diag_err={diag_err:.2e} "
           f"K={K:.4f}")
    keep_kernels("square_sweep", [p[0] for p in pairs[::100]])
    keep_kernels("square_sweep_tilde", [p[1] for p in pairs[::100]])
    assert gap_ok
    assert diag_ok
    assert esd_ok


def test_criterion_6_noncentered_reductions():
    sym = gf.SpectralSymbol(H2)
    sym1 = gf.SpectralSymbol(A1)
    zs = [1j, 2j, 0.5 + 0.3j]

    # (a) lambda = 0, c = 1 degenerates to the centered equation
    lam = gf.build_pseudo_diagonal(np.zeros(TIGHT_CFG.grid_size),
                                   TIGHT_CFG.grid_size, TIGHT_CFG.grid_size)
    H_zero = gf.measure_from_lambda(lam)
    H_zero_nodes = gf.measure_from_profile(lambda u: 0.0, TIGHT_CFG.grid_size)
    err_a = 0.0
    for z in zs:
        pi, _ = gf.solve_noncentered(ONES, 1.0, H_zero, z, TIGHT_CFG)
        k = gf.solve_centered(ONES, 1.0, z, TIGHT_CFG)
        err_a = max(err_a, abs(pi.value - k.value))
        pi2, _ = gf.solve_noncentered(sym.profile, 1.0, H_zero_nodes, z,
                                      TIGHT_CFG)
        k2 = gf.solve_centered(sym.profile, 1.0, z, TIGHT_CFG)
        err_a = max(err_a, abs(pi2.value - k2.value))
        keep_kernels("noncentered_lam0", [pi, pi2])

    # (b) zero profile reproduces the direct transform of the atoms
    zeros2 = lambda u, t: np.zeros(np.broadcast(u, t).shape)
    H_atoms = gf.AtomicMeasureH(u=np.array([0.25, 0.75]),
                                lam=np.array([1.0, 4.0]),
                                weights=np.array([0.5, 0.5]))
    err_b = 0.0
    for z in zs:
        pi, _ = gf.solve_noncentered(zeros2, 1.0, H_atoms, z, TIGHT_CFG)
        direct = 0.5 / (1 - z) + 0.5 / (4 - z)
        err_b = max(err_b, abs(pi.value - direct))

    # (c) c = 1 with the symbol-generated measure matches the square system
    H_sym = gf.measure_from_profile(sym1.profile, TIGHT_CFG.grid_size)
    err_c = 0.0
    for z in zs:
        pi, pit = gf.solve_noncentered(sym.profile, 1.0, H_sym, z, TIGHT_CFG)
        qi, qit = gf.solve_square(sym.profile, sym1.profile, z, TIGHT_CFG)
        err_c = max(err_c, abs(pi.value - qi.value),
                    abs(pit.value - qit.value))
        keep_kernels("noncentered_symbol", [pi, pit])

    ok = err_a < 1e-8 and err_b < 1e-10 and err_c < 1e-8
    report(6, "non-centered reductions", ok,
           f"err_centered={err_a:.2e} err_atoms={err_b:.2e} "
           f"err_square={err_c:.2e}")
    assert err_a < 1e-8
    assert err_b < 1e-10
    assert err_c < 1e-8


def test_criterion_7_real_case_whiteness_and_esd():
    sym = gf.SpectralSymbol(H2)
    N = n = 128
    S = 200
    Q_N, Q_n = gf.real_orthogonal_matrix(N), gf.real_orthogonal_matrix(n)
    samples = np.empty((S, N, n))
    for s in range(S):
        noise = gf.sample_noise(N, n, gf.NoiseSpec("real_standard", s),
                                margin=H2.radius)
        zt = gf.build_periodized_field(H2, noise)
        samples[s] = gf.congruence(Q_N, zt, Q_n)
    rep = gf.whiteness_check(samples)
    white_ok = rep.passed

    n_esd = 256
    pooled = pooled_spectrum(H2, n_esd, n_esd, SEEDS, real=True)
    grid = gf.default_inversion_grid(pooled)
    # the real-noise limit is the |Phi|^2 one, as in the complex case
    kernels = gf.solve_centered_many(sym.profile, 1.0,
                                     grid + 1e-3j, SWEEP_CFG)
    f_vals = np.array([k.value for k in kernels])
    limit = gf.invert_stieltjes_to_cdf(f_vals, grid, eta=1e-3)
    K = gf.kolmogorov_distance(pooled.ecdf(), limit)
    esd_ok = K < 0.02

    ok = white_ok and esd_ok
    report(7, "real case (whiteness + ESD)", ok,
           f"whiteness_max={max(rep.random_max, rep.mirror_max):.3f} "
           f"threshold={rep.threshold:.3f} K={K:.4f}")
    keep_kernels("real_sweep", kernels[::100])
    assert white_ok
    assert esd_ok


def test_criterion_7_real_case_variance_symmetrized_grid():
    # The expected grid is the exact real-congruence variance: each cos/sin
    # row pair averages the mirror values |Phi(f1,f2)|^2 and |Phi(f1,-f2)|^2.
    sym = gf.SpectralSymbol(H2)
    N = n = 128
    S = 200
    Q_N, Q_n = gf.real_orthogonal_matrix(N), gf.real_orthogonal_matrix(n)
    acc = np.zeros((N, n))
    for s in range(S):
        noise = gf.sample_noise(N, n, gf.NoiseSpec("real_standard", s),
                                margin=H2.radius)
        zt = gf.build_periodized_field(H2, noise)
        acc += gf.congruence(Q_N, zt, Q_n) ** 2
    mean = acc / S * n
    grid = gf.symmetrized_variance_grid(sym, N, n)
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
    assert KERNELS, "earlier criteria must have produced kernels"
    bad = []
    for label, k in KERNELS:
        rep = gf.verify_kernel_axioms(k)
        if not rep.passed:
            bad.append((label, k.z))
    axioms_ok = not bad

    # -i y f(i y) -> 1 at y = 1e3 for every solver family used above
    sym = gf.SpectralSymbol(H2)
    sym1 = gf.SpectralSymbol(A1)
    y = 1e3
    tails = {
        "mp": gf.solve_centered(ONES, 1.0, 1j * y, TIGHT_CFG).value,
        "centered": gf.solve_centered(sym.profile, 1.0, 1j * y,
                                      TIGHT_CFG).value,
        "square": gf.solve_square(sym.profile, sym1.profile, 1j * y,
                                  TIGHT_CFG)[0].value,
        "noncentered": gf.solve_noncentered(
            sym.profile, 1.0,
            gf.measure_from_profile(sym1.profile, 64), 1j * y,
            TIGHT_CFG)[0].value,
        # real_case runs solve the "centered" problem, so no separate entry
    }
    tail_errs = {name: abs(-1j * y * f - 1.0) for name, f in tails.items()}
    tail_ok = all(e < 1e-2 for e in tail_errs.values())

    ok = axioms_ok and tail_ok
    report(8, "kernel axioms", ok,
           f"kernels_checked={len(KERNELS)} violations={len(bad)} "
           f"max_tail_err={max(tail_errs.values()):.2e}")
    assert axioms_ok, f"kernel axiom violations: {bad[:5]}"
    assert tail_ok
