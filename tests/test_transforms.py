import numpy as np
import pytest

from gramfield import cli
from gramfield.matgen import (NoiseSpec, build_circulant,
                              build_periodized_field, build_pseudo_diagonal,
                              build_toeplitz, circulant_eigenvalues,
                              sample_noise)
from gramfield.spectra import gram_spectrum
from gramfield.symbols import FilterSequence1D, FilterSequence2D
from gramfield.transforms import (congruence, fourier_matrix,
                                  real_orthogonal_matrix,
                                  symmetrized_variance_grid,
                                  variance_profile_grid)

H_TEST = FilterSequence2D({(0, 0): 1, (1, 0): 0.5, (0, 1): 0.25})
A_TEST = FilterSequence1D({0: 1, 1: 0.5})
NOISE = NoiseSpec(seed=1)

# each function that takes a size: (call with the size p, its name)
SIZED = {
    "fourier_matrix": (fourier_matrix, "p"),
    "real_orthogonal_matrix": (real_orthogonal_matrix, "p"),
    "sample_noise_N": (lambda p: sample_noise(p, 8, NOISE), "N"),
    "sample_noise_n": (lambda p: sample_noise(8, p, NOISE), "n"),
    "sample_noise_margin": (lambda p: sample_noise(8, 8, NOISE, margin=p),
                            "margin"),
    "build_toeplitz": (lambda p: build_toeplitz(A_TEST, p), "n"),
    "build_circulant": (lambda p: build_circulant(A_TEST, p), "n"),
    "circulant_eigenvalues": (lambda p: circulant_eigenvalues(A_TEST, p),
                              "n"),
    "build_pseudo_diagonal_N": (
        lambda p: build_pseudo_diagonal(np.ones(8), p, 8), "N"),
    "build_pseudo_diagonal_n": (
        lambda p: build_pseudo_diagonal(np.ones(8), 8, p), "n"),
    "variance_profile_grid_N": (
        lambda p: variance_profile_grid(H_TEST, p, 8), "N"),
    "variance_profile_grid_n": (
        lambda p: variance_profile_grid(H_TEST, 8, p), "n"),
    "symmetrized_variance_grid_N": (
        lambda p: symmetrized_variance_grid(H_TEST, p, 8), "N"),
    "symmetrized_variance_grid_n": (
        lambda p: symmetrized_variance_grid(H_TEST, 8, p), "n"),
}


class TestFourierMatrix:
    def test_p1(self):
        assert np.array_equal(fourier_matrix(1), [[1.0]])

    def test_p2(self):
        expect = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.allclose(fourier_matrix(2), expect, atol=1e-15)

    def test_unitarity(self):
        for p in (3, 8, 17, 64):
            F = fourier_matrix(p)
            assert np.abs(F @ F.conj().T - np.eye(p)).max() < 1e-12

    def test_p0_rejected(self):
        with pytest.raises(ValueError):
            fourier_matrix(0)

    @pytest.mark.parametrize("build, name", list(SIZED.values()),
                             ids=list(SIZED))
    @pytest.mark.parametrize("p", [2.5, True, "3", np.float64(np.inf)],
                             ids=["fraction", "bool", "string", "inf"])
    def test_non_integer_size_rejected(self, build, name, p):
        # a fractional size must neither round to a neighbouring grid
        # (np.arange(8.5) has 9 points) nor surface as numpy's TypeError,
        # which does not name the argument
        with pytest.raises(ValueError, match=f"^{name} must be an integer, "
                                             "got"):
            build(p)

    @pytest.mark.parametrize("build, name, p", [
        pytest.param(build, name, p, id=f"{key}-{p}")
        for key, (build, name) in SIZED.items()
        for p in ((-1,) if name == "margin" else (0, -1))])
    def test_size_below_floor_rejected(self, build, name, p):
        # the variance grids and the pseudo-diagonal used to return empty
        # arrays; a margin may be 0, every other size must be at least 1
        with pytest.raises(ValueError, match=f"^{name} must be at least"):
            build(p)


class TestRealOrthogonal:
    def test_p2(self):
        expect = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.allclose(real_orthogonal_matrix(2), expect)

    def test_p3_rows(self):
        q = real_orthogonal_matrix(3)
        ang = 2 * np.pi * np.arange(3) / 3
        assert np.allclose(q[0], np.ones(3) / np.sqrt(3))
        assert np.allclose(q[1], np.sqrt(2 / 3) * np.cos(ang))
        assert np.allclose(q[2], np.sqrt(2 / 3) * np.sin(ang))

    def test_orthogonality(self):
        for p in (1, 2, 5, 6, 31, 64):
            q = real_orthogonal_matrix(p)
            assert np.abs(q @ q.T - np.eye(p)).max() < 1e-12

    def test_row_norms_and_dots(self):
        q = real_orthogonal_matrix(12)
        gram = q @ q.T
        assert np.allclose(np.diagonal(gram), 1.0, atol=1e-12)
        off = gram - np.diag(np.diagonal(gram))
        assert np.abs(off).max() < 1e-12


class TestCongruence:
    def test_identity_through_fourier(self):
        from gramfield.matgen import FieldMatrix
        p = 6
        F = fourier_matrix(p)
        eye = FieldMatrix(np.eye(p))
        out = congruence(F, eye, F)
        assert np.abs(out - np.eye(p)).max() < 1e-12

    def test_plain_array_input(self):
        F = fourier_matrix(3)
        out = congruence(F, np.eye(3), F)
        assert isinstance(out, np.ndarray)
        assert np.abs(out - np.eye(3)).max() < 1e-12

    def test_spectrum_invariance(self):
        N, n = 12, 20
        noise = sample_noise(N, n, NoiseSpec(seed=21))
        y = congruence(fourier_matrix(N), noise, fourier_matrix(n))
        s0 = gram_spectrum(noise).eigenvalues
        s1 = gram_spectrum(y).eigenvalues
        assert np.abs(s0 - s1).max() <= 1e-9 * max(1.0, s0.max())

    def test_dimension_mismatch(self):
        noise = sample_noise(4, 6, NoiseSpec(seed=2))
        with pytest.raises(ValueError):
            congruence(fourier_matrix(4), noise, fourier_matrix(4))

    def test_real_congruence_spectrum_invariance(self):
        N = n = 16
        h = H_TEST
        noise = sample_noise(N, n, NoiseSpec("real_standard", 3), margin=1)
        zt = build_periodized_field(h, noise)
        w = congruence(real_orthogonal_matrix(N), zt, real_orthogonal_matrix(n))
        s0 = gram_spectrum(zt).eigenvalues
        s1 = gram_spectrum(w).eigenvalues
        assert np.abs(s0 - s1).max() <= 1e-9 * max(1.0, s0.max())


class TestVarianceProfileGrid:
    def test_constant_filter(self):
        grid = variance_profile_grid(FilterSequence2D({(0, 0): 1}), 4, 6)
        assert np.allclose(grid, 1.0)

    def test_complex_grid_values(self):
        N, n = 6, 9
        grid = variance_profile_grid(H_TEST, N, n)
        assert grid[2, 5] == pytest.approx(
            abs(H_TEST.symbol(2 / 6, 5 / 9)) ** 2)
        assert grid.shape == (N, n)
        assert np.all(grid >= 0)

    def test_fourier_congruence_variance_monte_carlo(self):
        # per-entry |Y|^2 * n averages to |Phi(l1/N, l2/n)|^2; each entry
        # is exponential with sd equal to its mean, so the 3-sigma band
        # is 3*grid/sqrt(S); at least 99% of entries must sit inside
        h = H_TEST
        N, n, S = 32, 48, 200
        F_N, F_n = fourier_matrix(N), fourier_matrix(n)
        acc = np.zeros((N, n))
        for s in range(S):
            noise = sample_noise(N, n, NoiseSpec(seed=s), margin=1)
            zt = build_periodized_field(h, noise)
            y = congruence(F_N, zt, F_n)
            acc += np.abs(y) ** 2
        mean = acc / S * n
        grid = variance_profile_grid(h, N, n)
        ok = np.abs(mean - grid) <= 3 * grid / np.sqrt(S)
        assert ok.mean() >= 0.99

    def test_real_congruence_variance_follows_symmetrized_grid(self):
        # the cos/sin mixing averages the two mirror values |Phi(s,+-t)|^2,
        # and that symmetrized grid is what samples follow
        h = H_TEST
        N = n = 32
        S = 200
        Q = real_orthogonal_matrix(N)
        acc = np.zeros((N, n))
        for s in range(S):
            noise = sample_noise(N, n, NoiseSpec("real_standard", s), margin=1)
            zt = build_periodized_field(h, noise)
            w = congruence(Q, zt, Q)
            acc += w ** 2
        mean = acc / S * n
        sym_grid = symmetrized_variance_grid(h, N, n)
        ok = np.abs(mean - sym_grid) <= 3 * np.sqrt(2.0 / S) * sym_grid
        assert ok.mean() >= 0.99

    def test_exact_second_moment_of_real_congruence(self):
        # no sampling: E[W^2] follows from the Gaussian covariance of the
        # periodized field, E Zt[j] Zt[j'] = C~(j - j') / n with C~ the
        # mod-(N, n) wrapped autocovariance, contracted against the row
        # autocorrelations of Q.  The result matches the symmetrized grid
        # to machine precision.
        h = H_TEST
        N = n = 12
        q = real_orthogonal_matrix(N)
        # wrapped autocovariance on the fundamental domain
        cov = np.zeros((N, n))
        for d1 in range(N):
            for d2 in range(n):
                val = 0.0
                for m1 in (-1, 0, 1):
                    for m2 in (-1, 0, 1):
                        val += h.covariance(d1 + m1 * N, d2 + m2 * n).real
                cov[d1, d2] = val
        # row autocorrelations R[l, d] = sum_j Q[l, j] Q[l, (j - d) mod p]
        rho = np.empty((N, N))
        for d in range(N):
            rho[:, d] = (q * np.roll(q, d, axis=1)).sum(axis=1)
        exact = rho @ cov @ rho.T  # E[W^2] * n, entrywise
        sym_grid = symmetrized_variance_grid(h, N, n)
        assert np.abs(exact - sym_grid).max() < 1e-10


def _noise_and_transform(h, N, n, dist, seed):
    """The noise sheet the run samples for one seed, and Uhat = F_N U F_n^*
    of the N x n block U that its periodized field reads."""
    noise = sample_noise(N, n, NoiseSpec(dist, seed), margin=h.radius)
    m = noise.margin
    block = noise.entries[m:m + N, m:m + n]
    return noise, congruence(fourier_matrix(N), block, fourier_matrix(n))


def _phi_grid(h, N, n):
    """Phi(l1/N, l2/n) on the Fourier frequencies."""
    return h.symbol(np.arange(N)[:, None] / N,
                                  np.arange(n)[None, :] / n)


class TestFourierIdentity:
    """F_N Zt F_n^* = Phi_grid * Uhat / sqrt(n), sample by sample.

    The periodized field is a two-dimensional circular convolution of
    the noise block, which the Fourier congruence diagonalizes, so the
    identity holds to rounding at any size and seed; a wrong sign or
    scale in the symbol, the wrap or the transform breaks it by O(1).
    """

    @pytest.mark.parametrize("N, n", [(16, 16), (8, 12)])
    def test_centered(self, N, n):
        # Uhat of complex standard noise is again i.i.d. complex standard
        # noise (unitary invariance), so the entries are independent with
        # variances |Phi|^2 / n
        noise, u_hat = _noise_and_transform(H_TEST, N, n,
                                            "complex_standard", 3)
        zt = build_periodized_field(H_TEST, noise)
        lhs = congruence(fourier_matrix(N), zt, fourier_matrix(n))
        rhs = _phi_grid(H_TEST, N, n) * u_hat / np.sqrt(n)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_noncentered_pseudodiag(self):
        # the deterministic part the run adds maps onto the pseudo-diagonal
        N, n = 8, 12
        lam = np.array([2, 1j, 0.5 - 1j, 0, 3, -1, 0.25j, 1.5 + 0.5j])
        cfg = cli.ExperimentConfig(
            mode="noncentered_pseudodiag", filter2d=H_TEST, N=N, n=n,
            seeds=[3], z_grid=[], lambda_diag=lam)
        noise, u_hat = _noise_and_transform(H_TEST, N, n,
                                            "complex_standard", 3)
        det = cli._deterministic_part(cfg)
        m = build_periodized_field(H_TEST, noise) + det
        lhs = congruence(fourier_matrix(N), m, fourier_matrix(n))
        rhs = (_phi_grid(H_TEST, N, n) * u_hat / np.sqrt(n)
               + build_pseudo_diagonal(lam, N, n))
        assert np.abs(lhs - rhs).max() < 1e-12

    @pytest.mark.parametrize("N, n", [(16, 16), (8, 12)])
    def test_real_case(self, N, n):
        # the identity holds for real noise too, but Uhat then has the
        # Hermitian symmetry Uhat[-l1, -l2] = conj Uhat[l1, l2], so the
        # mirror entries are not independent
        noise, u_hat = _noise_and_transform(H_TEST, N, n, "real_standard", 3)
        zt = build_periodized_field(H_TEST, noise)
        lhs = congruence(fourier_matrix(N), zt, fourier_matrix(n))
        rhs = _phi_grid(H_TEST, N, n) * u_hat / np.sqrt(n)
        assert np.abs(lhs - rhs).max() < 1e-12
        mirror = u_hat[-np.arange(N) % N][:, -np.arange(n) % n]
        assert np.abs(mirror - u_hat.conj()).max() < 1e-12
