import numpy as np
import pytest

from gramfield.matgen import (FieldMatrix, NoiseSpec, build_circulant,
                              build_field, build_periodized_field,
                              build_pseudo_diagonal, build_toeplitz,
                              circulant_eigenvalues, sample_noise)
from gramfield.symbols import FilterSequence1D, FilterSequence2D
from gramfield.transforms import fourier_matrix


class TestNoise:
    def test_determinism(self):
        spec = NoiseSpec("complex_standard", seed=42)
        u1 = sample_noise(16, 24, spec, margin=2)
        u2 = sample_noise(16, 24, spec, margin=2)
        assert np.array_equal(u1.entries, u2.entries)
        u3 = sample_noise(16, 24, NoiseSpec("complex_standard", seed=43), margin=2)
        assert not np.array_equal(u1.entries, u3.entries)

    def test_complex_moments(self):
        # E|U|^2 = 1 and E U^2 = 0; CLT gives std(mean |U|^2) = 1/512
        # and std(mean U^2) = sqrt(2)/512 over 512^2 entries
        u = sample_noise(512, 512, NoiseSpec("complex_standard", seed=0))
        assert 0.95 <= np.mean(np.abs(u.entries) ** 2) <= 1.05
        assert abs(np.mean(u.entries ** 2)) <= 0.02

    def test_real_moments(self):
        u = sample_noise(512, 512, NoiseSpec("real_standard", seed=0))
        assert not np.iscomplexobj(u.entries)
        assert 0.95 <= np.mean(u.entries ** 2) <= 1.05

    def test_window_shape(self):
        u = sample_noise(8, 12, NoiseSpec(seed=1), margin=3)
        assert u.shape == (14, 18)
        assert u.margin == 3

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            sample_noise(0, 4, NoiseSpec(seed=1))
        with pytest.raises(ValueError):
            NoiseSpec("uniform", seed=1)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 5])
    def test_seed_outside_uint64_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            NoiseSpec(seed=seed)

    @pytest.mark.parametrize("seed", [1.5, True, "1", None],
                             ids=["fraction", "bool", "string", "none"])
    def test_non_integer_seed_rejected(self, seed):
        # 1.5 used to draw seed 1's stream, and True was accepted as 1
        with pytest.raises(ValueError, match="^seed must be an integer, got"):
            NoiseSpec(seed=seed)

    def test_seed_cast_to_int(self):
        for seed in (7.0, np.int64(7), np.uint64(7)):
            assert type(NoiseSpec(seed=seed).seed) is int
        assert NoiseSpec(seed=7.0) == NoiseSpec(seed=7)

    @pytest.mark.parametrize("seed", [0, 5, 2 ** 64 - 1])
    def test_stream_is_philox_keyed_by_seed(self, seed):
        u = sample_noise(3, 4, NoiseSpec("real_standard", seed=seed))
        rng = np.random.Generator(np.random.Philox(
            key=np.array([seed, 0], dtype=np.uint64)))
        assert np.array_equal(u.entries, rng.standard_normal(size=(3, 4)))


class TestBuildField:
    def test_identity_filter_restricts_noise(self):
        h = FilterSequence2D({(0, 0): 1})
        noise = sample_noise(6, 9, NoiseSpec(seed=3), margin=2)
        z = build_field(h, noise)
        assert np.allclose(z, noise.entries[2:8, 2:11] / 3.0)

    def test_empty_filter_gives_zero(self):
        h = FilterSequence2D({})
        noise = sample_noise(4, 4, NoiseSpec(seed=3))
        z = build_field(h, noise)
        assert np.all(z == 0)

    def test_margin_too_small(self):
        h = FilterSequence2D({(2, 0): 1})
        noise = sample_noise(4, 4, NoiseSpec(seed=3), margin=1)
        with pytest.raises(ValueError, match="margin"):
            build_field(h, noise)

    def test_plain_sheet_has_no_margin(self):
        h = FilterSequence2D({(0, 0): 1, (1, 0): 0.5})
        plain = sample_noise(6, 6, NoiseSpec(seed=3), margin=1).entries
        with pytest.raises(ValueError,
                           match="noise margin 0 too small for filter radius 1"):
            build_field(h, plain)

    def test_entry_variance_monte_carlo(self):
        # sample mean of |Z|^2 over entries and seeds targets C(0,0)/n;
        # its variance is sum_d |C(d)|^2 / (N n^3 S) from the Gaussian
        # fourth-moment expansion, correlations included
        h = FilterSequence2D({(0, 0): 1, (1, 0): 0.5})
        N = n = 32
        S = 100
        acc = 0.0
        for s in range(S):
            noise = sample_noise(N, n, NoiseSpec(seed=s), margin=1)
            z = build_field(h, noise)
            acc += np.mean(np.abs(z) ** 2)
        mean = acc / S
        c00 = h.covariance(0, 0).real
        sum_c2 = sum(abs(h.covariance(d1, d2)) ** 2
                     for d1 in range(-1, 2) for d2 in range(-1, 2))
        sigma = np.sqrt(sum_c2 / (N * n ** 3 * S))
        assert abs(mean - c00 / n) <= 3 * sigma

    def test_trace_mean_monte_carlo(self):
        # (1/n) Tr Z Z* has mean (N/n) C(0,0)
        h = FilterSequence2D({(0, 0): 1, (1, 1): 0.5, (0, -1): 0.25j})
        N, n = 24, 48
        S = 200
        traces = []
        for s in range(S):
            noise = sample_noise(N, n, NoiseSpec(seed=s), margin=1)
            z = build_field(h, noise)
            traces.append(np.sum(np.abs(z) ** 2) / n)
        c00 = h.covariance(0, 0).real
        sum_c2 = sum(abs(h.covariance(d1, d2)) ** 2
                     for d1 in range(-2, 3) for d2 in range(-2, 3))
        sigma = np.sqrt(N * sum_c2 / n ** 3 / S)
        assert abs(np.mean(traces) - N / n * c00) <= 3 * sigma


class TestPeriodized:
    def test_identity_filter_no_wrap(self):
        h = FilterSequence2D({(0, 0): 1})
        noise = sample_noise(8, 8, NoiseSpec(seed=5), margin=0)
        z = build_field(h, noise)
        zt = build_periodized_field(h, noise)
        assert np.array_equal(z, zt)

    def test_full_wrap_shift(self):
        # a filter tap at (N, 0) wraps all the way around
        N = n = 8
        h = FilterSequence2D({(N, 0): 1})
        noise = sample_noise(N, n, NoiseSpec(seed=6), margin=N)
        zt = build_periodized_field(h, noise)
        block = noise.entries[N:2 * N, N:2 * N]
        assert np.allclose(zt, block / np.sqrt(n))

    def test_differs_only_in_border_band(self):
        h = FilterSequence2D({(0, 0): 1, (1, 0): 0.5, (0, 1): 0.25, (-1, -1): 0.1})
        N = n = 64
        r = h.radius
        noise = sample_noise(N, n, NoiseSpec(seed=7), margin=r)
        z = build_field(h, noise)
        zt = build_periodized_field(h, noise)
        diff = np.abs(z - zt)
        assert np.all(diff[r:N - r, r:n - r] == 0)
        assert diff.max() > 0  # border band genuinely differs

    def test_alpha_decays_with_size(self):
        h = FilterSequence2D({(0, 0): 1, (1, 1): 1})
        means = []
        for size in (32, 128):
            alphas = []
            for s in range(50):
                noise = sample_noise(size, size, NoiseSpec(seed=s), margin=1)
                z = build_field(h, noise)
                zt = build_periodized_field(h, noise)
                alphas.append(np.sum(np.abs(z - zt) ** 2) / size)
            means.append(np.mean(alphas))
        assert means[1] <= 0.5 * means[0]

    def test_matches_definition_beyond_window(self):
        # taps past the 5 x 7 block on both axes, with negative indices:
        # the filter radius (11) exceeds both N and n
        N, n = 5, 7
        taps = {(0, 0): 1.0, (11, -3): 0.5 - 0.25j, (-6, 9): 0.75}
        noise = sample_noise(N, n, NoiseSpec(seed=12), margin=0)
        U = noise.entries
        expected = np.zeros((N, n), dtype=complex)
        for j1 in range(N):
            for j2 in range(n):
                for (k1, k2), c in taps.items():
                    expected[j1, j2] += c * U[(j1 - k1) % N, (j2 - k2) % n]
        expected /= np.sqrt(n)
        zt = build_periodized_field(FilterSequence2D(taps), noise)
        assert np.allclose(zt, expected, rtol=0, atol=1e-14)

    def test_window_inside_wider_margin(self):
        # margin 3 around a 5 x 7 window, filter radius 1: both fields
        # cover the window, and the raw one reads the sheet at offset 3
        N, n, m = 5, 7, 3
        taps = {(0, 0): 1.0, (1, -1): 0.5 - 0.25j, (-1, 0): 0.75}
        h = FilterSequence2D(taps)
        noise = sample_noise(N, n, NoiseSpec(seed=13), margin=m)
        U = noise.entries
        expected = np.zeros((N, n), dtype=complex)
        for j1 in range(N):
            for j2 in range(n):
                for (k1, k2), c in taps.items():
                    expected[j1, j2] += c * U[m + j1 - k1, m + j2 - k2]
        expected /= np.sqrt(n)
        z = build_field(h, noise)
        assert np.allclose(z, expected, rtol=0, atol=1e-14)
        assert build_periodized_field(h, noise).shape == (N, n)

    def test_plain_sheet_matches_margin_zero_sheet(self):
        h = FilterSequence2D({(0, 0): 1, (1, -2): 0.5 - 0.25j})
        noise = sample_noise(6, 9, NoiseSpec(seed=4))
        plain = noise.entries.copy()
        assert np.array_equal(build_periodized_field(h, plain),
                              build_periodized_field(h, noise))

    def test_alpha_zero_for_identity(self):
        h = FilterSequence2D({(0, 0): 1})
        noise = sample_noise(16, 16, NoiseSpec(seed=8), margin=0)
        z = build_field(h, noise)
        zt = build_periodized_field(h, noise)
        assert np.sum(np.abs(z - zt) ** 2) == 0


class TestToeplitz:
    def test_identity(self):
        a = FilterSequence1D({0: 1})
        assert np.array_equal(build_toeplitz(a, 3), np.eye(3))

    def test_subdiagonal(self):
        a = FilterSequence1D({1: 1})
        assert np.array_equal(build_toeplitz(a, 2),
                              np.array([[0.0, 0.0], [1.0, 0.0]]))

    def test_trace_identity(self):
        # (1/n) Tr A A* = sum_{|j|<n} |a(j)|^2 (1 - |j|/n) <= (sum |a|)^2
        a = FilterSequence1D({j: 2.0 ** (-abs(j)) * (1 + 0.3j)
                              for j in range(-6, 7)})
        n = 11
        A = build_toeplitz(a, n)
        lhs = np.sum(np.abs(A) ** 2) / n
        rhs = sum(abs(a[j]) ** 2 * (1 - abs(j) / n) for j in range(-n + 1, n))
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert lhs <= np.abs(a.arrays()[-1]).sum() ** 2


class TestCirculant:
    def test_closed_form_small(self):
        a = FilterSequence1D({0: 2, 1: 1, -1: 0.5})
        C = build_circulant(a, 3)
        # wrapped coefficients: at(0)=2, at(1)=1, at(2)=0.5, at(-1)=0.5, at(-2)=1
        expect = np.array([[2, 0.5, 1], [1, 2, 0.5], [0.5, 1, 2]], dtype=float)
        assert np.allclose(C, expect)

    def test_matches_fourier_sum(self):
        # closed form vs (1/n) sum_k psi_n(k/n) e^{-2 pi i k d / n}
        a = FilterSequence1D({0: 1, 1: 0.5 - 0.25j, -2: 0.3, 5: 0.1j})
        n = 8
        C = build_circulant(a, n)
        k = np.arange(n)
        psi_vals = a.symbol(k / n)  # the taps fit in |j| <= n
        d = np.subtract.outer(np.arange(n), np.arange(n))
        fourier = (psi_vals[None, None, :] *
                   np.exp(-2j * np.pi * k[None, None, :] * d[:, :, None] / n)
                   ).sum(axis=2) / n
        assert np.abs(C - fourier).max() < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_wrapped_sums_match_loop_reference(self, n):
        # taps at |k| = n wrap onto the diagonal, taps at |k| > n are
        # dropped; reference: the wrapped sums and psi_n(k/n) entry by entry
        a = FilterSequence1D({k: complex(1 + k % 3, 0.5 * k)
                              for k in (-n - 2, -n, -1, 0, 1, n, n + 1)})
        C = build_circulant(a, n)
        abs_sum = np.abs(a.arrays()[-1]).sum()
        expect = np.zeros((n, n), dtype=complex)
        for j1 in range(n):
            for j2 in range(n):
                d = j1 - j2
                if d == 0:
                    expect[j1, j2] = a[0] + a[n] + a[-n]
                elif d > 0:
                    expect[j1, j2] = a[d] + a[d - n]
                else:
                    expect[j1, j2] = a[d] + a[d + n]
        assert np.abs(C - expect).max() <= 1e-15 * abs_sum
        psi_n = [sum(a[j] * np.exp(2j * np.pi * j * k / n)
                     for j in range(-n, n + 1)) for k in range(n)]
        assert np.abs(circulant_eigenvalues(a, n) - psi_n).max() <= \
            1e-12 * abs_sum

    def test_no_wrap_matches_toeplitz(self):
        a = FilterSequence1D({0: 1, 1: 0.5, -1: 0.25})
        n = 6
        A = build_toeplitz(a, n)
        C = build_circulant(a, n)
        assert np.allclose(C[:, 0][:2], A[:, 0][:2])
        # circulant: every diagonal wraps
        for shift in range(1, n):
            assert np.allclose(np.roll(C[0], shift), C[shift])

    def test_fourier_diagonalization(self):
        # square_toeplitz's exact Fourier-domain identity
        # F_n C F_n^* = diag(circulant_eigenvalues), at an even and an odd n
        a = FilterSequence1D({0: 1, 1: 0.5 + 0.2j, -2: 0.3})
        for n in (48, 7):
            F = fourier_matrix(n)
            D = F @ build_circulant(a, n) @ F.conj().T
            expect = np.diag(circulant_eigenvalues(a, n))
            assert np.abs(D - expect).max() < 1e-12, n

    def test_trace_bound(self):
        # (1/n) Tr At At* = (1/n) sum |psi_n(k/n)|^2 <= (sum |a|)^2
        a = FilterSequence1D({j: (0.8 + 0.1j) ** abs(j) for j in range(-5, 6)})
        for n in (4, 9, 16):
            C = build_circulant(a, n)
            lhs = np.sum(np.abs(C) ** 2) / n
            eig_form = np.mean(np.abs(circulant_eigenvalues(a, n)) ** 2)
            assert lhs == pytest.approx(eig_form, rel=1e-12)
            assert lhs <= np.abs(a.arrays()[-1]).sum() ** 2 + 1e-12

    def test_toeplitz_gap_decays(self):
        # (1/n) Tr (A - At)(A - At)* halves from n=128 to n=512 for the
        # geometric filter truncated at |j| <= 20
        a = FilterSequence1D({j: 2.0 ** (-abs(j)) for j in range(-20, 21)})
        gaps = {}
        for n in (128, 512):
            A = build_toeplitz(a, n)
            C = build_circulant(a, n)
            gaps[n] = np.sum(np.abs(A - C) ** 2) / n
        assert gaps[512] <= 0.5 * gaps[128]


class TestPseudoDiagonal:
    def test_identity(self):
        lam = build_pseudo_diagonal([1, 1], 2, 2)
        assert np.allclose(lam, np.eye(2))

    def test_rectangular(self):
        lam = build_pseudo_diagonal([2j, 3], 2, 4)
        assert lam.shape == (2, 4)
        assert lam[0, 0] == 2j
        assert lam[1, 1] == 3
        assert np.sum(np.abs(lam)) == pytest.approx(5.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            build_pseudo_diagonal([1, 2, 3], 2, 4)


class TestFieldMatrix:
    def test_non_integral_margin_rejected(self):
        # int() would truncate 1.5 to 1 without an error
        with pytest.raises(ValueError,
                           match="^margin must be an integer, got 1.5"):
            FieldMatrix(np.eye(4), margin=1.5)

    @pytest.mark.parametrize("margin, message", [
        (-1, "^margin must be at least 0, got -1$"),
        (2, "^margin 2 leaves no window of the 3 x 3 matrix$")],
        ids=["-1", "2"])
    def test_margin_without_window_rejected(self, margin, message):
        # a sheet without a window would give a field read from outside
        # it: margin -1 on this sheet would give [[8.]]
        with pytest.raises(ValueError, match=message):
            FieldMatrix(np.arange(9.0).reshape(3, 3), margin=margin)

    def test_integral_values_cast_to_int(self):
        m = FieldMatrix(np.eye(3), margin=1.0)
        assert type(m.margin) is int and m.margin == 1


class TestArrayProtocol:
    @pytest.mark.parametrize("scale", [1.0, 1 - 2j])
    def test_asarray_is_the_entries(self, scale):
        m = FieldMatrix(np.arange(6.0).reshape(2, 3) * scale)
        assert np.asarray(m) is m.entries
        assert np.array_equal(np.asarray(m, dtype=complex),
                              m.entries.astype(complex))
        copied = np.array(m)
        assert copied is not m.entries
        assert np.array_equal(copied, m.entries)

