import re

import numpy as np
import pytest

from gramfield.matgen import (FieldMatrix, NoiseSpec, build_field,
                              build_periodized_field, sample_noise)
from gramfield.spectra import (DistributionFunction, bai_bound,
                               default_inversion_grid,
                               empirical_stieltjes, gram_spectrum,
                               invert_stieltjes_to_cdf, kolmogorov_distance,
                               levy_distance, read_cdf_csv, trace_stats,
                               write_cdf_csv)
from gramfield.symbols import FilterSequence2D

from oracles import (brute_kolmogorov, brute_levy, grid_levy_sample_vs_table,
                     table_cdf)


ecdf = DistributionFunction.ecdf


class TestGramSpectrum:
    def test_zero_matrix(self):
        m = FieldMatrix(np.zeros((4, 4)))
        assert np.array_equal(gram_spectrum(m), np.zeros(4))

    def test_identity(self):
        m = FieldMatrix(np.eye(3))
        assert np.allclose(gram_spectrum(m), [1, 1, 1])

    def test_padded_diagonal_left_right(self):
        e = np.zeros((2, 3))
        e[0, 0], e[1, 1] = 1.0, 2.0
        m = FieldMatrix(e)
        assert np.allclose(gram_spectrum(m), [1, 4])
        assert np.allclose(gram_spectrum(m.entries.conj().T),
                           [0, 1, 4])

    @pytest.mark.parametrize("entry", [1e155, 1e200])
    def test_overflowing_product_named(self, entry):
        # used to warn "overflow encountered in matmul" and then raise an
        # unnamed LinAlgError ("Eigenvalues did not converge")
        with pytest.raises(ValueError, match="overflows float64"):
            gram_spectrum(np.full((4, 6), entry))

    def test_left_right_share_nonzero(self):
        noise = sample_noise(10, 17, NoiseSpec(seed=31))
        left = gram_spectrum(noise)
        right = gram_spectrum(noise.entries.conj().T)
        assert len(right) - len(left) == 7
        # the 7 extra values are (numerical) zeros
        assert np.abs(right[:7]).max() <= 1e-9 * left.max()
        assert np.abs(np.sort(right[7:]) - np.sort(left)).max() \
            <= 1e-9 * left.max()


class TestDistributionFunction:
    def test_table_starting_above_zero(self):
        # a CDF file read by `gramfield compare` may start above 0: the
        # table is completed by (x_0, 0), so the left limit there is 0
        F = DistributionFunction([1, 2], [0.3, 1])
        assert F.eval_left(1.0) == 0.0
        assert F.eval(1.0) == 0.3
        assert np.ndim(F.eval(1.0)) == 0 and np.ndim(F.eval_left(1.0)) == 0
        x = [0.5, 1.0, 1.5, 2.0, 3.0]
        assert np.allclose(F.eval(x), [0.0, 0.3, 0.65, 1.0, 1.0])
        assert np.allclose(F.eval_left(x), [0.0, 0.0, 0.65, 1.0, 1.0])

    def test_matches_pointwise_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            xs = np.sort(rng.integers(0, 8, rng.integers(1, 12)) / 4)
            fs = np.sort(rng.random(len(xs)))
            F = DistributionFunction(xs, fs)
            pts = np.concatenate([xs, rng.uniform(-1, 3, 20)])
            for left, ev in ((False, F.eval), (True, F.eval_left)):
                ref = [table_cdf(list(xs), fs, x, left) for x in pts]
                assert np.allclose(ev(pts), ref, rtol=0, atol=1e-15)

    def test_ecdf_limits_at_a_double_eigenvalue(self):
        F = ecdf([1.0, 2.0, 2.0, 3.0])
        assert (F.eval(2.0), F.eval_left(2.0)) == (0.75, 0.25)
        assert (F.eval(0.5), F.eval_left(1.0), F.eval(3.0)) == (0, 0, 1)


class TestKolmogorov:
    def test_equal(self):
        s = ecdf([0.5, 1.5, 2.0])
        assert kolmogorov_distance(s, s) == 0.0

    def test_point_masses(self):
        assert kolmogorov_distance(ecdf([0]), ecdf([1])) == 1.0

    def test_uniform_draws_vs_identity_cdf(self):
        # the one-sample Kolmogorov statistic exceeds 1.63/sqrt(n) with
        # probability below 1%; fixed seed keeps it deterministic
        rng = np.random.default_rng(123)
        n = 1000
        draws = ecdf(rng.random(n))
        ident = DistributionFunction([0.0, 1.0], [0.0, 1.0])
        assert kolmogorov_distance(draws, ident) < 1.63 / np.sqrt(n)

    def test_matches_brute_force_two_sample(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.random(int(rng.integers(1, 12)))
            b = rng.random(int(rng.integers(1, 12))) * 2
            lib = kolmogorov_distance(ecdf(a), ecdf(b))
            assert lib == pytest.approx(brute_kolmogorov(a, b), abs=1e-12)


class TestLevy:
    def test_equal(self):
        s = ecdf([0.0, 1.0, 2.5])
        assert levy_distance(s, s) == 0.0

    def test_shifted_point_mass(self):
        d = levy_distance(ecdf([0.0]), ecdf([0.3]))
        assert d == pytest.approx(0.3, abs=1e-8)

    def test_mass_imbalance(self):
        d = levy_distance(ecdf([0, 1]), ecdf([0, 1, 1]))
        assert 0 < d <= 1 / 6 + 1e-9

    def test_levy_below_kolmogorov(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            a = rng.random(int(rng.integers(1, 15))) * 3
            b = rng.random(int(rng.integers(1, 15))) * 3
            sa, sb = ecdf(a), ecdf(b)
            assert levy_distance(sa, sb) <= kolmogorov_distance(sa, sb) + 1e-9

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            a = rng.random(int(rng.integers(1, 8)))
            b = rng.random(int(rng.integers(1, 8)))
            lib = levy_distance(ecdf(a), ecdf(b))
            ref = brute_levy(a, b, step=1e-4)
            assert lib == pytest.approx(ref, abs=2e-4)

    def test_scale_shift(self):
        # shifting one spectrum by s moves the Levy distance to at most s
        s = ecdf(np.linspace(0, 2, 9))
        shifted = ecdf(np.linspace(0, 2, 9) + 0.05)
        d = levy_distance(s, shifted)
        assert d <= 0.05 + 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            a = ecdf(rng.random(int(rng.integers(1, 20))))
            b = ecdf(rng.random(int(rng.integers(1, 20))) * 2)
            assert levy_distance(a, b) == pytest.approx(
                levy_distance(b, a), abs=2e-9)


def random_table(rng):
    """Piecewise-linear CDF table: strictly increasing abscissae, a jump
    at the first point half the time, total mass 1 or below."""
    k = int(rng.integers(2, 8))
    xs = np.sort(rng.random(k)) * 2 + np.arange(k) * 1e-3
    mass = 1.0 if rng.random() < 0.5 else rng.uniform(0.3, 1.0)
    fs = np.sort(rng.uniform(0.0, mass, k))
    if rng.random() < 0.5:
        fs[0] = 0.0
    fs[-1] = mass
    return xs, fs


class TestLevyAgainstTable:
    def test_point_mass_vs_uniform(self):
        # F(x) = 1{x >= 0.2} against G(x) = x on [0, 1]: the binding
        # constraint is F(x - eps) - eps <= G(x) at x = 0.2 + eps,
        # i.e. 1 - eps <= 0.2 + eps, so eps = 0.4
        mass = ecdf([0.2])
        uniform = DistributionFunction([0.0, 1.0], [0.0, 1.0])
        assert levy_distance(mass, uniform) == pytest.approx(0.4, abs=1e-12)
        assert levy_distance(uniform, mass) == pytest.approx(0.4, abs=1e-12)

    def test_random_sample_vs_table_matches_grid_scan(self):
        rng = np.random.default_rng(11)
        step = 1e-3
        for _ in range(60):
            vals = rng.random(int(rng.integers(1, 10))) * 2
            xs, fs = random_table(rng)
            table = DistributionFunction(xs, fs)
            ref = grid_levy_sample_vs_table(vals, xs, fs, step=step)
            for d in (levy_distance(ecdf(vals), table),
                      levy_distance(table, ecdf(vals))):
                assert d == pytest.approx(ref, abs=step + 1e-9)


class TestEmpiricalStieltjes:
    def test_zero_spectrum(self):
        assert empirical_stieltjes(np.zeros(3), 1j) == pytest.approx(1j)

    def test_single_atom(self):
        assert empirical_stieltjes([1.0], 2j) == pytest.approx((1 + 2j) / 5)

    def test_tail_normalization(self):
        rng = np.random.default_rng(8)
        s = rng.random(50) * 4
        y = 1e6 * s.max()
        val = empirical_stieltjes(s, 1j * y)
        assert abs(-1j * y * val - 1.0) < 1e-5

    def test_transform_properties_random(self):
        rng = np.random.default_rng(9)
        s = rng.random(30) * 5
        for _ in range(50):
            z = complex(rng.normal(), abs(rng.normal()) + 1e-3)
            f = empirical_stieltjes(s, z)
            assert abs(f) <= 1.0 / z.imag + 1e-12
            assert f.imag > 0
            assert (z * f).imag >= -1e-12

    @pytest.mark.parametrize("z", [
        1.0 + 0j, -0.5j, complex(0, np.nan), complex(np.nan, 1),
        complex(0, np.inf), complex(np.inf, 1)],
        ids=["real_axis", "lower_half", "nan_imag", "nan_real", "inf_imag",
             "inf_real"])
    def test_bad_z_rejected(self, z):
        # a NaN passed the old Im z <= 0 check and returned NaN
        with pytest.raises(ValueError, match="z must be finite"):
            empirical_stieltjes([1.0], z)


class TestBaiBound:
    def test_equal_matrices(self):
        m = FieldMatrix(np.eye(3))
        assert bai_bound(m, m) == (0.0, 0.0)

    def test_periodization_pairs(self):
        h = FilterSequence2D({(0, 0): 1, (1, 0): 0.5, (0, 1): 0.25})
        for s in range(20):
            noise = sample_noise(64, 64, NoiseSpec(seed=s), margin=1)
            z = build_field(h, noise)
            zt = build_periodized_field(h, noise)
            lhs, rhs = bai_bound(z, zt)
            assert lhs <= rhs

    def test_random_stress(self):
        for s in range(100):
            a = sample_noise(32, 32, NoiseSpec(seed=2 * s))
            b = sample_noise(32, 32, NoiseSpec(seed=2 * s + 1))
            lhs, rhs = bai_bound(a, b)
            assert lhs <= rhs

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            bai_bound(FieldMatrix(np.eye(2)), FieldMatrix(np.eye(3)))


class TestTraceStats:
    def test_alpha_zero_when_equal(self):
        noise = sample_noise(8, 8, NoiseSpec(seed=4))
        alpha, _, _ = trace_stats(noise, noise)
        assert alpha == 0.0

    def test_beta_mean_identity_filter(self):
        # with B = 0 and the identity filter, E beta = (N/n) C(0,0) = N/n
        h = FilterSequence2D({(0, 0): 1})
        N, n, S = 16, 32, 300
        betas = []
        for s in range(S):
            noise = sample_noise(N, n, NoiseSpec(seed=s), margin=0)
            z = build_field(h, noise)
            zt = build_periodized_field(h, noise)
            _, beta, _ = trace_stats(z, zt)
            betas.append(beta)
        # var over seeds of (1/n)||Z||_F^2 = N/n^2 for the identity filter
        sigma = np.sqrt(N / n ** 2 / S)
        assert abs(np.mean(betas) - N / n) <= 3 * sigma

    def test_beta_cauchy_schwarz_bound(self):
        h = FilterSequence2D({(0, 0): 1, (1, 1): 0.5})
        b_entries = np.linspace(0, 1, 12 * 20).reshape(12, 20)
        B = FieldMatrix(b_entries)
        for s in range(10):
            noise = sample_noise(12, 20, NoiseSpec(seed=s), margin=1)
            z = build_field(h, noise)
            zt = build_periodized_field(h, noise)
            _, beta, _ = trace_stats(z, zt, B)
            t_z = np.sum(np.abs(z) ** 2) / 20
            t_b = np.sum(np.abs(B.entries) ** 2) / 20
            assert beta <= (np.sqrt(t_z) + np.sqrt(t_b)) ** 2 + 1e-12

    def test_overflowing_trace_named(self):
        # used to warn "overflow encountered in square" and return inf
        with pytest.raises(ValueError, match=r"^trace statistics \(alpha, "
                                             r"beta, beta_tilde\) = \(inf, "
                                             r"inf, 0.0\) are not finite: "
                                             "a squared entry sum overflows "
                                             "float64"):
            trace_stats(np.full((2, 3), 1e200), np.zeros((2, 3)))


class TestInversion:
    def test_point_mass_at_zero(self):
        # f(z) = -1/z; with eta = 1e-3 the Cauchy kernel puts
        # (2/pi) arctan(0.1/eta) > 0.99 of the mass inside [-0.1, 0.1]
        grid = np.arange(-1.0, 1.0, 1e-3)
        cdf = invert_stieltjes_to_cdf(-1.0 / (grid + 1e-3j), grid, eta=1e-3)
        mass = cdf.eval(0.1) - cdf.eval(-0.1)
        assert mass >= 0.99

    def test_point_mass_at_one(self):
        grid = np.arange(0.0, 2.0, 1e-3)
        cdf = invert_stieltjes_to_cdf(1.0 / (1.0 - (grid + 1e-3j)), grid,
                                     eta=1e-3)
        assert cdf.eval(0.9) < 0.05
        assert cdf.eval(1.1) > 0.95

    def test_self_consistency_with_empirical_transform(self):
        rng = np.random.default_rng(12)
        vals = rng.random(100) * 4
        grid = np.arange(-1.0, 5.0, 1e-3)
        f_vals = np.array([empirical_stieltjes(vals, x + 1e-3j)
                           for x in grid])
        cdf = invert_stieltjes_to_cdf(f_vals, grid, eta=1e-3)
        assert kolmogorov_distance(ecdf(vals), cdf) < 0.02
        assert 0.98 <= cdf.fs[-1] <= 1.0

    @pytest.mark.parametrize("eta", [0.0, -1e-3, np.nan, np.inf],
                             ids=["zero", "negative", "nan", "inf"])
    def test_bad_eta(self, eta):
        grid = np.array([0.0, 1.0])
        with pytest.raises(ValueError, match="eta must be finite"):
            invert_stieltjes_to_cdf(-1.0 / (grid + 1e-3j), grid, eta=eta)

    @pytest.mark.parametrize("step", [0.0, -0.1, np.nan, np.inf],
                             ids=["zero", "negative", "nan", "inf"])
    def test_bad_grid_step_rejected(self, step):
        # a negative step gave an empty grid, 0 a ZeroDivisionError
        with pytest.raises(ValueError, match="step must be finite"):
            default_inversion_grid(ecdf([0.5, 1.0]), step=step)

    @pytest.mark.parametrize("pad", [np.nan, np.inf, -5.0],
                             ids=["nan", "inf", "negative"])
    def test_bad_grid_pad_rejected(self, pad):
        # nan and inf used to raise unnamed conversion errors, and -5 on
        # these eigenvalues gave an empty grid
        with pytest.raises(ValueError,
                           match="^pad must be finite and nonnegative, got"):
            default_inversion_grid(ecdf([0.5, 1.0]), pad=pad)


class TestCdfCsv:
    def test_round_trip_and_distance_stability(self, tmp_path):
        rng = np.random.default_rng(13)
        d1 = ecdf(rng.random(40))
        d2 = ecdf(rng.random(30) + 0.1)
        p1, p2 = tmp_path / "f.csv", tmp_path / "g.csv"
        write_cdf_csv(d1, p1)
        write_cdf_csv(d2, p2)
        r1, r2 = read_cdf_csv(p1), read_cdf_csv(p2)
        assert levy_distance(r1, r2) == levy_distance(d1, d2)
        assert kolmogorov_distance(r1, r2) == kolmogorov_distance(d1, d2)

    def test_malformed(self, tmp_path):
        # `gramfield compare` reports these errors, so each names the file
        bodies = ["a,b\n1,2\n", "x,F\n0,abc\n", "x,F\n0,0\n1,0.5,2\n",
                  "x,F\n0,nan\n", "x,F\n0,0.5\n1,0.2\n"]
        for i, body in enumerate(bodies):
            path = tmp_path / f"bad{i}.csv"
            path.write_text(body)
            with pytest.raises(ValueError, match=re.escape(str(path))):
                read_cdf_csv(path)

    def test_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x,F\n\n")
        with pytest.raises(ValueError, match="empty"):
            read_cdf_csv(path)

    def test_golden_text_round_trips(self, tmp_path):
        xs = [-0.0, 5e-324, 0.1, 1 / 3, 1e300]
        d = DistributionFunction(xs, [0.0, 5e-324, 0.1, 1 / 3, 1.0])
        path = tmp_path / "g.csv"
        write_cdf_csv(d, path)
        assert path.read_text() == (
            "x,F\n-0,0\n"
            "4.9406564584124654e-324,4.9406564584124654e-324\n"
            "0.10000000000000001,0.10000000000000001\n"
            "0.33333333333333331,0.33333333333333331\n"
            "1.0000000000000001e+300,1\n")
        back = read_cdf_csv(path)
        assert np.array_equal(back.xs, d.xs) and np.array_equal(back.fs, d.fs)
        assert np.signbit(back.xs[0])


@pytest.mark.parametrize("vals", [[0.1, np.nan, 2.0], [0.1, 2.0, np.inf]])
def test_non_finite_eigenvalues_rejected(vals):
    # a NaN made the Stieltjes transform NaN
    with pytest.raises(ValueError, match="must be finite"):
        ecdf(vals)
    with pytest.raises(ValueError, match="^eigenvalues must be finite$"):
        empirical_stieltjes(vals, 1j)


def test_ecdf_sorts_its_sample():
    # an unsorted sample with a tie gives the table of the sorted one:
    # each value twice, at the heights before and after its jump
    F = ecdf([3.0, 1.0, 2.0, 1.0])
    assert F.xs.tolist() == [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
    assert F.fs.tolist() == [0.0, 0.25, 0.25, 0.5, 0.5, 0.75, 0.75, 1.0]


def test_ecdf_of_a_negative_sample():
    # a sample need not be nonnegative; the inversion grid spans its table
    F = ecdf([-2.0, 0.5, -1.0])
    assert F.xs.tolist() == [-2.0, -2.0, -1.0, -1.0, 0.5, 0.5]
    assert (F.eval_left(-2.0), F.eval(-2.0), F.eval(0.5)) == (0, 1 / 3, 1)
    assert default_inversion_grid(F, step=0.5).tolist() == [
        -3.0, -2.5, -2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]


@pytest.mark.parametrize("xs, fs", [
    ([0.0, np.nan, 1.0], [0.0, 0.5, 1.0]),
    ([0.0, 0.5, np.inf], [0.0, 0.5, 1.0]),
    ([0.0, 0.5, 1.0], [0.0, np.nan, 1.0]),
])
def test_non_finite_table_rejected(xs, fs):
    with pytest.raises(ValueError, match="finite"):
        DistributionFunction(xs, fs)
