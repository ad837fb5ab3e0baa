import numpy as np
import pytest

from gramfield.matgen import NoiseSpec, build_periodized_field, sample_noise
from gramfield.spectra import gram_spectrum
from gramfield.symbols import FilterSequence2D, SpectralSymbol
from gramfield.transforms import (congruence, fourier_matrix,
                                  real_orthogonal_matrix,
                                  symmetrized_variance_grid,
                                  variance_profile_grid, whiteness_check)

H_TEST = FilterSequence2D({(0, 0): 1, (1, 0): 0.5, (0, 1): 0.25})


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

    @pytest.mark.parametrize("build", [fourier_matrix,
                                       real_orthogonal_matrix])
    @pytest.mark.parametrize("p", [2.5, True, "3", np.float64(np.inf)],
                             ids=["fraction", "bool", "string", "inf"])
    def test_non_integer_size_rejected(self, build, p):
        # fourier_matrix(2.5) used to return a 3 x 3 matrix and
        # real_orthogonal_matrix(2.5) to raise an unnamed TypeError
        with pytest.raises(ValueError, match="^p must be an integer, got"):
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
        sym = SpectralSymbol(FilterSequence2D({(0, 0): 1}))
        grid = variance_profile_grid(sym, 4, 6)
        assert np.allclose(grid, 1.0)

    def test_complex_grid_values(self):
        sym = SpectralSymbol(H_TEST)
        N, n = 6, 9
        grid = variance_profile_grid(sym, N, n)
        assert grid[2, 5] == pytest.approx(abs(sym.eval(2 / 6, 5 / 9)) ** 2)
        assert grid.shape == (N, n)
        assert np.all(grid >= 0)

    def test_fourier_congruence_variance_monte_carlo(self):
        # per-entry |Y|^2 * n averages to |Phi(l1/N, l2/n)|^2; each entry
        # is exponential with sd equal to its mean, so the 3-sigma band
        # is 3*grid/sqrt(S); at least 99% of entries must sit inside
        h = H_TEST
        sym = SpectralSymbol(h)
        N, n, S = 32, 48, 200
        F_N, F_n = fourier_matrix(N), fourier_matrix(n)
        acc = np.zeros((N, n))
        for s in range(S):
            noise = sample_noise(N, n, NoiseSpec(seed=s), margin=1)
            zt = build_periodized_field(h, noise)
            y = congruence(F_N, zt, F_n)
            acc += np.abs(y) ** 2
        mean = acc / S * n
        grid = variance_profile_grid(sym, N, n)
        ok = np.abs(mean - grid) <= 3 * grid / np.sqrt(S)
        assert ok.mean() >= 0.99

    def test_real_congruence_variance_follows_symmetrized_grid(self):
        # the cos/sin mixing averages the two mirror values |Phi(s,+-t)|^2,
        # and that symmetrized grid is what samples follow
        h = H_TEST
        sym = SpectralSymbol(h)
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
        sym_grid = symmetrized_variance_grid(sym, N, n)
        ok = np.abs(mean - sym_grid) <= 3 * np.sqrt(2.0 / S) * sym_grid
        assert ok.mean() >= 0.99

    def test_exact_second_moment_of_real_congruence(self):
        # no sampling: E[W^2] follows from the Gaussian covariance of the
        # periodized field, E Zt[j] Zt[j'] = C~(j - j') / n with C~ the
        # mod-(N, n) wrapped autocovariance, contracted against the row
        # autocorrelations of Q.  The result matches the symmetrized grid
        # to machine precision.
        h = H_TEST
        sym = SpectralSymbol(h)
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
        sym_grid = symmetrized_variance_grid(sym, N, n)
        assert np.abs(exact - sym_grid).max() < 1e-10


class TestWhiteness:
    def test_iid_noise_passes(self):
        samples = np.stack([
            sample_noise(24, 24, NoiseSpec(seed=s)).entries for s in range(200)])
        rep = whiteness_check(samples)
        assert rep.passed
        assert rep.random_frac_below >= 0.95
        assert rep.mirror_frac_below >= 0.95

    def test_fourier_congruence_passes(self):
        h = H_TEST
        N = n = 24
        F = fourier_matrix(N)
        samples = np.empty((200, N, n), dtype=complex)
        for s in range(200):
            noise = sample_noise(N, n, NoiseSpec(seed=s), margin=1)
            zt = build_periodized_field(h, noise)
            samples[s] = congruence(F, zt, F)
        rep = whiteness_check(samples)
        assert rep.passed

    def test_complex_fourier_on_real_noise_flags_mirror(self):
        # Y[l1, l2] equals conj(Y[N-l1, n-l2]) when the underlying noise
        # is real, so the mirror family lights up at correlation ~1
        h = H_TEST
        N = n = 24
        F = fourier_matrix(N)
        samples = np.empty((100, N, n), dtype=complex)
        for s in range(100):
            noise = sample_noise(N, n, NoiseSpec("real_standard", s), margin=1)
            zt = build_periodized_field(h, noise)
            samples[s] = congruence(F, zt, F)
        rep = whiteness_check(samples)
        assert rep.mirror_max > 0.9
        assert not rep.passed

    def test_field_matrix_list_matches_stacked_array(self):
        for dist in ("complex_standard", "real_standard"):
            mats = [build_periodized_field(
                H_TEST, sample_noise(8, 12, NoiseSpec(dist, s), margin=1))
                for s in range(40)]
            stacked = np.stack(mats)
            assert whiteness_check(mats) == whiteness_check(stacked)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            whiteness_check(np.zeros((1, 4, 4)))
