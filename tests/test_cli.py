import json

import numpy as np
import pytest

from gramfield import cli
from gramfield.limit_solver import (SolverConfig, measure_from_lambda,
                                    measure_from_profile,
                                    solve_noncentered_many)
from gramfield.matgen import circulant_eigenvalues
from gramfield.spectra import (DistributionFunction, read_cdf_csv,
                               write_cdf_csv)


def base_config(tmp_path, **overrides):
    doc = {
        "mode": "centered",
        "filter2d": {"dims": 2, "entries": [[0, 0, 1.0, 0.0],
                                            [1, 0, 0.5, 0.0],
                                            [0, 1, 0.25, 0.0]]},
        "N": 16,
        "n": 16,
        "seeds": [0, 1, 2],
        "z_grid": [[0.0, 1.0], [1.0, 2.0]],
        "solver": {"grid_size": 16, "tolerance": 1e-8,
                   "max_iterations": 20000, "damping": 0.5},
        "inversion": {"eta": 1e-2, "step": 0.05, "pad": 1.0},
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(overrides)
    return doc


MISSING = object()  # an override that deletes the key
FILTER1D = {"dims": 1, "entries": [[0, 1.0, 0.0]]}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestRun:
    def test_centered_artifacts_and_cross_check(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path))
        cfg = cli.load_config(path)
        summary = cli.run_experiment(cfg)
        out = tmp_path / "out"
        for name in ("pooled_ecdf.csv", "limit_cdf.csv", "stieltjes.csv",
                     "summary.csv", "eigenvalues_seed0.csv"):
            assert (out / name).exists()
        # summary distances must reproduce exactly from the emitted files
        levy, kolmogorov = cli.compare_distributions(
            out / "pooled_ecdf.csv", out / "limit_cdf.csv")
        assert levy == summary["levy_pooled_vs_limit"]
        assert kolmogorov == summary["kolmogorov_pooled_vs_limit"]
        assert summary["bai_holds_all"] == 1

    def test_byte_identical_rerun(self, tmp_path):
        doc = base_config(tmp_path)
        path = write_config(tmp_path, doc)
        cfg = cli.load_config(path)
        cli.run_experiment(cfg)
        blobs = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        cli.run_experiment(cli.load_config(path))
        for p in (tmp_path / "out").iterdir():
            assert p.read_bytes() == blobs[p.name]

    def test_square_identity_is_delta_one(self, tmp_path):
        doc = base_config(
            tmp_path,
            mode="square_toeplitz",
            filter2d={"dims": 2, "entries": []},
            filter1d={"dims": 1, "entries": [[0, 1.0, 0.0]]})
        cfg = cli.load_config(write_config(tmp_path, doc))
        cli.run_experiment(cfg)
        ecdf = read_cdf_csv(tmp_path / "out" / "pooled_ecdf.csv")
        assert ecdf.eval(1.0) == 1.0
        assert ecdf.eval(1.0 - 1e-12) == 0.0

    def test_noncentered_mode_runs(self, tmp_path):
        doc = base_config(
            tmp_path,
            mode="noncentered_pseudodiag",
            lambda_diag=[[1.0, 0.0]] * 16)
        cfg = cli.load_config(write_config(tmp_path, doc))
        summary = cli.run_experiment(cfg)
        assert summary["kolmogorov_pooled_vs_limit"] < 0.5

    def test_real_mode_runs(self, tmp_path):
        doc = base_config(tmp_path, mode="real_case")
        cfg = cli.load_config(write_config(tmp_path, doc))
        summary = cli.run_experiment(cfg)
        assert summary["bai_holds_all"] == 1

    def test_real_mode_matches_real_noise_monte_carlo(self, tmp_path):
        # The real-noise Gram spectrum follows |Phi|^2: at z = i (this
        # filter, N = n = 256, seeds 0-7) the Monte Carlo mean of
        # 1/(lambda - i) is 0.26821+0.59916i with standard error 5e-4, and
        # the |Phi|^2 limit is 4.4e-4 from it.
        doc = base_config(
            tmp_path, mode="real_case", N=256, n=256, seeds=list(range(8)),
            z_grid=[[0.0, 1.0]],
            inversion={"eta": 0.1, "step": 0.5, "pad": 0.5})
        cli.run_experiment(cli.load_config(write_config(tmp_path, doc)))
        out = tmp_path / "out"
        eig = np.concatenate([
            np.loadtxt(out / f"eigenvalues_seed{s}.csv", skiprows=1)
            for s in range(8)])
        monte_carlo = np.mean(1.0 / (eig - 1j))
        row = np.loadtxt(out / "stieltjes.csv", delimiter=",", skiprows=1)
        assert abs(complex(row[2], row[3]) - monte_carlo) < 5e-3

    def test_real_mode_solves_the_centered_limit(self, tmp_path):
        # real noise changes the simulated spectra, not the limit: both
        # modes solve the |Phi|^2 fixed point, so the tables are identical
        tables = {}
        for mode in ("real_case", "centered"):
            doc = base_config(tmp_path, mode=mode,
                              output_dir=str(tmp_path / mode))
            cli.run_experiment(cli.load_config(
                write_config(tmp_path, doc, name=f"{mode}.json")))
            tables[mode] = (tmp_path / mode / "stieltjes.csv").read_bytes()
        assert tables["real_case"] == tables["centered"]

    def test_square_mode_solves_the_noncentered_limit(self, tmp_path):
        # the Toeplitz part enters the limit as the pseudo-diagonal model
        # at c = 1 with diagonal psi on the solver's midpoint nodes
        filter1d = {"dims": 1, "entries": [[0, 1.0, 0.0], [3, 0.5, 0.0],
                                           [-5, 0.25, 0.0]]}
        doc = base_config(tmp_path, mode="square_toeplitz", filter1d=filter1d)
        doc["solver"]["grid_size"] = 32  # above 2d = 16, d = 3 - (-5)
        cfg = cli.load_config(write_config(tmp_path, doc))
        cli.run_experiment(cfg)
        row = np.loadtxt(tmp_path / "out" / "stieltjes.csv", delimiter=",",
                         skiprows=1)
        H = measure_from_profile(cfg.filter1d.profile,
                                 cfg.solver.grid_size)
        pairs = solve_noncentered_many(cfg.filter2d.profile,
                                       1.0, H, cfg.z_grid, cfg.solver)
        assert np.array_equal(row[:, 2] + 1j * row[:, 3],
                              [pi.value for pi, _ in pairs])

    def test_square_mode_route_beats_the_circulant_route(self, tmp_path):
        # The Toeplitz part could also enter the limit as the pseudo-
        # diagonal model with the circulant's eigenvalues as its diagonal.
        # Against the seed mean of mean 1/(lambda - z) over the spectra
        # `run` simulates (N = n = 64, seeds 0-39), the midpoint route is
        # 0.84 / 0.87 / 0.94 standard errors off at z = i, 1 + i, 2 + 0.5i
        # and the circulant route 4.54 / 3.95 / 1.75.
        filter1d = {"dims": 1, "entries": [[0, 1.0, 0.0], [1, 0.5, 0.25],
                                           [-2, 0.3, 0.0]]}
        doc = base_config(tmp_path, mode="square_toeplitz", N=64, n=64,
                          seeds=list(range(40)), filter1d=filter1d,
                          solver={"grid_size": 64, "tolerance": 1e-10})
        cfg = cli.ExperimentConfig.from_json_dict(doc)
        zs = np.array([1j, 1 + 1j, 2 + 0.5j])
        det = cli._deterministic_part(cfg)
        f = np.array([np.mean(1 / (cli._simulate_seed(cfg, det, s)[
            "spectrum"][:, None] - zs), axis=0) for s in cfg.seeds])
        mc = f.mean(axis=0)
        se = np.sqrt(np.sum(np.abs(f - mc) ** 2, axis=0) / (len(f) - 1)
                     / len(f))
        route = np.array([k.value for k in cli._solve_batch(cfg, zs)])
        H = measure_from_lambda(circulant_eigenvalues(cfg.filter1d, cfg.n))
        circulant = solve_noncentered_many(cfg.filter2d.profile, 1.0, H,
                                           zs, cfg.solver)
        assert np.all(np.abs(route - mc) <= 3 * se)
        assert abs(circulant[0][0].value - mc[0]) > 3 * se[0]

    def test_nonconvergence_recorded_not_fatal(self, tmp_path):
        doc = base_config(
            tmp_path,
            solver={"grid_size": 16, "tolerance": 1e-14,
                    "max_iterations": 2, "damping": 0.5})
        cfg = cli.load_config(write_config(tmp_path, doc))
        summary = cli.run_experiment(cfg)
        assert summary["solver_nonconverged"] > 0
        assert (tmp_path / "out" / "limit_cdf.csv").exists()

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        doc = base_config(tmp_path)
        del doc["output_dir"]
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "envout"))
        cfg = cli.load_config(write_config(tmp_path, doc))
        cli.run_experiment(cfg)
        assert (tmp_path / "envout" / "summary.csv").exists()


class TestConfigValidation:
    def test_unknown_mode(self, tmp_path):
        doc = base_config(tmp_path, mode="banana")
        with pytest.raises(ValueError):
            cli.load_config(write_config(tmp_path, doc))

    def test_square_needs_square(self, tmp_path):
        doc = base_config(tmp_path, mode="square_toeplitz", N=8, n=16,
                          filter1d={"dims": 1, "entries": [[0, 1.0, 0.0]]})
        with pytest.raises(ValueError):
            cli.load_config(write_config(tmp_path, doc))

    def test_wide_rectangular_rejected(self, tmp_path):
        doc = base_config(tmp_path, N=32, n=16)
        with pytest.raises(ValueError):
            cli.load_config(write_config(tmp_path, doc))

    def test_tap_outside_the_toeplitz_matrix_rejected(self, tmp_path):
        # build_toeplitz drops a tap at |k| >= n, which the limit keeps:
        # with taps {0: 1, 1: 0.5+0.25i, 64: 0.3} the limit sat 104
        # standard errors from Monte Carlo at z = i (N = n = 64, seeds
        # 0-39); grid 256 passes the aliasing rule, so this rule alone fails
        def doc(tap):
            return base_config(
                tmp_path, mode="square_toeplitz", N=64, n=64,
                filter1d={"dims": 1, "entries": [[0, 1.0, 0.0],
                                                 [tap, 0.3, 0.0]]},
                solver={"grid_size": 256})
        with pytest.raises(ValueError, match="^filter1d tap 64 is outside "
                                             "the 64 x 64 Toeplitz matrix$"):
            cli.ExperimentConfig.from_json_dict(doc(64))
        cli.ExperimentConfig.from_json_dict(doc(-63))

    @pytest.mark.parametrize("key, entries", [
        ("filter1d", [[0, 1.0, 0.0], [32, 0.5, 0.0]]),
        ("filter2d", [[0, 0, 1.0, 0.0], [0, 32, 0.5, 0.0]])])
    def test_grid_aliasing_the_profile_rejected(self, tmp_path, key,
                                                entries):
        # taps 0 and 32 put a cos(2 pi 32 t) in the profile, which vanishes
        # at all 64 midpoints: with this filter1d the limit sat 51 standard
        # errors from Monte Carlo at z = i (N = n = 64, seeds 0-39)
        doc = base_config(tmp_path, mode="square_toeplitz", N=64, n=64,
                          filter1d=FILTER1D, solver={"grid_size": 64})
        doc[key] = {"dims": len(entries[0]) - 2, "entries": entries}
        with pytest.raises(ValueError, match=f"^solver grid_size 64 must "
                                             f"exceed 2d, twice {key}'s "
                                             "largest tap gap d = 32$"):
            cli.ExperimentConfig.from_json_dict(doc)
        doc["solver"] = {"grid_size": 65}
        cli.ExperimentConfig.from_json_dict(doc)

    def test_lower_half_plane_rejected(self, tmp_path):
        doc = base_config(tmp_path, z_grid=[[0.0, -1.0]])
        with pytest.raises(ValueError):
            cli.load_config(write_config(tmp_path, doc))

    def test_real_mode_needs_real_filter(self, tmp_path):
        doc = base_config(
            tmp_path, mode="real_case",
            filter2d={"dims": 2, "entries": [[0, 0, 0.0, 1.0]]})
        with pytest.raises(ValueError):
            cli.load_config(write_config(tmp_path, doc))

    def test_empty_seeds(self, tmp_path):
        doc = base_config(tmp_path, seeds=[])
        with pytest.raises(ValueError):
            cli.load_config(write_config(tmp_path, doc))

    def test_repeated_seed_rejected(self, tmp_path):
        # used to write one eigenvalue file and pool its spectrum twice
        doc = base_config(tmp_path, seeds=[3, 1, 3])
        with pytest.raises(ValueError, match="seed 3 is listed more than"):
            cli.load_config(write_config(tmp_path, doc))

    def test_non_finite_lambda_diag_rejected(self, tmp_path):
        # used to pass and fail later inside the eigensolver
        doc = base_config(tmp_path, mode="noncentered_pseudodiag",
                          lambda_diag=[[1.0, 0.0]] * 15 + [[np.nan, 0.0]])
        with pytest.raises(ValueError, match="lambda_diag entries"):
            cli.ExperimentConfig.from_json_dict(doc)

    def test_overflowing_lambda_diag_named_before_output(self, tmp_path):
        # finite entries, so the config loads; the Gram product used to
        # overflow with a warning and end in an unnamed LinAlgError
        out = tmp_path / "out"
        doc = base_config(tmp_path, mode="noncentered_pseudodiag",
                          lambda_diag=[[1e200, 0.0]] * 16)
        path = write_config(tmp_path, doc)
        with pytest.raises(ValueError, match="overflows float64"):
            cli.main(["run", str(path)])
        assert list(out.iterdir()) == []

    def test_filter2d_must_be_2d(self, tmp_path):
        doc = base_config(tmp_path,
                          filter2d={"dims": 1, "entries": [[0, 1.0, 0.0]]})
        with pytest.raises(ValueError, match="filter2d must be a 2-d filter"):
            cli.ExperimentConfig.from_json_dict(doc)

    def test_filter1d_must_be_1d(self, tmp_path):
        doc = base_config(tmp_path, mode="square_toeplitz",
                          filter1d={"dims": 2, "entries": [[0, 0, 1.0, 0.0]]})
        with pytest.raises(ValueError, match="filter1d must be a 1-d filter"):
            cli.ExperimentConfig.from_json_dict(doc)

    @pytest.mark.parametrize("z", [[0.0, float("nan")], [float("nan"), 1.0]])
    def test_non_finite_z_rejected(self, tmp_path, z):
        doc = base_config(tmp_path, z_grid=[[0.0, 1.0], z])
        with pytest.raises(ValueError, match="finite"):
            cli.ExperimentConfig.from_json_dict(doc)

    @pytest.mark.parametrize("section, key", [("solver", "tolerence"),
                                              ("inversion", "etta")])
    def test_unknown_setting_rejected(self, tmp_path, section, key):
        doc = base_config(tmp_path)
        doc[section] = dict(doc[section], **{key: 1e-12})
        with pytest.raises(ValueError, match=f"unknown {section} setting "
                                             f"'{key}'"):
            cli.load_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize("key, value", [
        ("step", 0.0), ("step", -0.1), ("step", float("nan")),
        ("pad", -5.0), ("pad", float("inf")),
        ("eta", 0.0), ("eta", float("nan"))])
    def test_bad_inversion_setting_fails_before_output(self, tmp_path, key,
                                                       value):
        # used to simulate every seed and write the eigenvalue, pooled-ECDF
        # and stieltjes.csv files before failing in the inversion
        out = tmp_path / "out"
        out.mkdir()
        doc = base_config(tmp_path)
        doc["inversion"] = dict(doc["inversion"], **{key: value})
        path = write_config(tmp_path, doc)
        with pytest.raises(ValueError, match=f"inversion {key} must be finite"):
            cli.main(["run", str(path)])
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("section, key", [
        ("solver", "tolerance"), ("solver", "grid_size"),
        ("solver", "damping"), ("inversion", "step")])
    def test_null_setting_rejected(self, tmp_path, section, key):
        # used to fail with a TypeError that did not name the setting, or
        # (damping) to select a per-z step
        doc = base_config(tmp_path)
        doc[section] = dict(doc[section], **{key: None})
        with pytest.raises(ValueError, match=f"{section} {key} must not be "
                                             "null"):
            cli.ExperimentConfig.from_json_dict(doc)

    @pytest.mark.parametrize("override, name", [
        ({"solver": {"grid_size": 64.7}}, "solver grid_size"),
        ({"solver": {"max_iterations": True}}, "solver max_iterations"),
        ({"N": 8.9}, "N"), ({"n": "16"}, "n"), ({"seeds": [0, 1.5]}, "seed")],
        ids=["grid_size", "max_iterations", "N", "n", "seed"])
    def test_non_integer_setting_rejected(self, tmp_path, override, name):
        # used to truncate: 64.7 -> 64, true -> 1, 8.9 -> 8, 1.5 -> 1
        doc = base_config(tmp_path, **override)
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            cli.ExperimentConfig.from_json_dict(doc)

    @pytest.mark.parametrize("override, message", [
        ({"N": 2.5}, "^N must be an integer, got 2.5$"),
        ({"n": np.float64(16.5)}, "^n must be an integer, got "),
        ({"seeds": [1, 1.5]}, "^seed must be an integer, got 1.5$"),
        ({"seeds": [1, True]}, "^seed must be an integer, got True$"),
        ({"seeds": [1, 1.0]}, "^seed 1 is listed more than once$")],
        ids=["N", "n", "seed_fraction", "seed_bool", "seed_repeated_float"])
    def test_library_config_checks_integers(self, tmp_path, override,
                                            message):
        # a library-built config skipped the reader's integer check: N=2.5
        # created the output directory and then raised an unnamed
        # TypeError, and seeds [1, 1.5] simulated seed 1 twice
        doc = base_config(tmp_path, **override)
        kwargs = {key: doc[key] for key in ("mode", "N", "n", "seeds")}
        with pytest.raises(ValueError, match=message):
            cli.run_experiment(cli.ExperimentConfig(
                filter2d=cli._read_filter(doc, "filter2d", 2), z_grid=[],
                output_dir=doc["output_dir"], **kwargs))
        assert not (tmp_path / "out").exists()

    def test_library_config_casts_integers(self, tmp_path):
        doc = base_config(tmp_path)
        cfg = cli.ExperimentConfig(
            mode="centered", filter2d=cli._read_filter(doc, "filter2d", 2),
            N=16.0, n=np.int64(16), seeds=[np.uint64(2 ** 64 - 1), 3.0],
            z_grid=[])
        assert (cfg.N, cfg.n, cfg.seeds) == (16, 16, [2 ** 64 - 1, 3])
        assert {type(x) for x in (cfg.N, cfg.n, *cfg.seeds)} == {int}

    def test_largest_seed_kept_exactly(self, tmp_path):
        doc = base_config(tmp_path, seeds=[2 ** 64 - 1, 0])
        cfg = cli.ExperimentConfig.from_json_dict(doc)
        assert cfg.seeds == [2 ** 64 - 1, 0]

    @pytest.mark.parametrize("override, message", [
        ({"mode": "noncentered_pseudodiag", "lambda_diag": [[1.0, 0.0]] * 15},
         r"diagonal length \(15,\) does not match min\(16, 16\)"),
        ({"mode": "noncentered_pseudodiag", "lambda_diag": [[1.0, 0.0]] * 17},
         r"diagonal length \(17,\) does not match min\(16, 16\)"),
        ({"seeds": [0, -1]}, r"seed -1 is outside \[0, 2\*\*64\)"),
        ({"seeds": [2 ** 64]}, r"seed 18446744073709551616 is outside"),
        ({"filter2d": {"dims": 2, "entries": [[0, 0, 1.0, 0.0],
                                              [0, 0, 0.5, 0.0]]}},
         r"filter entries\[1\] repeats tap \(0, 0\)"),
        ([1, 2], r"^run config must be an object, got \[1, 2\]"),
        *[({key: MISSING}, f"^run config lacks '{key}'")
          for key in ("mode", "filter2d", "N", "n", "seeds")],
        ({"seeds": 5}, "^seeds must be a list, got 5"),
        ({"z_grid": 1.0}, "^z_grid must be a list, got 1.0"),
        ({"mode": "noncentered_pseudodiag", "lambda_diag": {"re": 1.0}},
         r"^lambda_diag must be a list, got \{'re': 1.0\}"),
        ({"solver": [16]}, r"^solver must be an object, got \[16\]"),
        ({"inversion": "fine"}, "^inversion must be an object, got 'fine'"),
        ({"output_dir": 5}, "^output_dir must be a string, got 5"),
        ({"zgrid": [[0.0, 1.0]]}, "^run config has unknown key 'zgrid'"),
        ({"filter1d": FILTER1D},
         "^filter1d is required in square_toeplitz mode and not read in any "
         "other; the mode is 'centered'"),
        ({"lambda_diag": [[1.0, 0.0]] * 16},
         "^lambda_diag is required in noncentered_pseudodiag mode and not "
         "read in any other; the mode is 'centered'"),
        ({"mode": "square_toeplitz", "filter1d": FILTER1D,
          "lambda_diag": [[1.0, 0.0]] * 16},
         "^lambda_diag is required in noncentered_pseudodiag mode and not "
         "read in any other; the mode is 'square_toeplitz'"),
        ({"lambda_diag": None}, "^lambda_diag must be a list, got None"),
        ({"mode": "square_toeplitz"},
         "^filter1d is required in square_toeplitz mode"),
        ({"mode": "noncentered_pseudodiag"},
         "^lambda_diag is required in noncentered_pseudodiag mode"),
        ({"filter2d": {"dims": 2, "entires": [[0, 0, 1.0, 0.0]]}},
         r"^filter2d: filter document must hold exactly 'dims' and "
         r"'entries', got keys \['dims', 'entires'\]"),
        ({"filter2d": None},
         "^filter2d: filter document must be an object, got None$"),
        ({"mode": "square_toeplitz",
          "filter1d": {"dims": 1, "entries": [[0, 1.0, 0.0],
                                              [0.5, 1.0, 0.0]]}},
         r"^filter1d: filter entries\[1\] has tap index 0.5, which is not "
         "an int64 integer$"),
        ({"mode": "square_toeplitz",
          "filter1d": {"dims": 1, "entries": [[0, 1.0, 10 ** 400]]}},
         r"^filter1d: filter entries\[0\] holds an integer too large for a "
         "float$"),
        ({"filter2d": {"dims": True, "entries": [[0, 1.0, 0.0]]}},
         "^filter2d: filter dims must be an integer, got True$"),
        ({"N": 0}, "^N must be at least 1, got 0$"),
        ({"solver": {"tolerance": -1}},
         r"^solver tolerance must be finite and positive, got -1.0$")],
        ids=["lambda_diag_short", "lambda_diag_long", "seed_negative",
             "seed_too_large", "filter_repeated_tap", "document_not_object",
             "missing_mode", "missing_filter2d", "missing_N", "missing_n",
             "missing_seeds", "seeds_not_list", "z_grid_not_list",
             "lambda_diag_not_list", "solver_not_object",
             "inversion_not_object", "output_dir_not_string",
             "unknown_key", "filter1d_centered", "lambda_diag_centered",
             "lambda_diag_square", "lambda_diag_null",
             "square_without_filter1d", "noncentered_without_lambda_diag",
             "filter_entires", "filter2d_null", "filter1d_bad_tap",
             "filter1d_huge_coefficient", "filter2d_bool_dims", "N_zero",
             "solver_tolerance_negative"])
    def test_bad_config_fails_before_output_dir(self, tmp_path, override,
                                               message):
        # used to create the output directory (and, for a bad seed, to
        # simulate every earlier seed) before failing; the document shape
        # errors used to be bare KeyError / TypeError / AttributeError, or
        # (output_dir 5) a TypeError inside run_experiment; an unknown key,
        # a key the mode does not read (null too) and a misspelt filter
        # key used to be dropped: "entires" loaded as h = 0; a filter
        # document's errors did not say which key holds it, and "dims":
        # true loaded a 1-d filter
        doc = override
        if isinstance(override, dict):
            doc = {key: value for key, value in
                   base_config(tmp_path, **override).items()
                   if value is not MISSING}
        path = write_config(tmp_path, doc)
        with pytest.raises(ValueError, match=message):
            cli.main(["run", str(path)])
        assert not (tmp_path / "out").exists()

    def test_settings_defaults_and_casts(self, tmp_path):
        doc = base_config(tmp_path, solver={"grid_size": 16.0},
                          inversion={"step": 1})
        cfg = cli.load_config(write_config(tmp_path, doc))
        assert cfg.solver == SolverConfig(grid_size=16)
        assert type(cfg.solver.grid_size) is int
        assert cfg.inversion == cli.InversionSettings(step=1.0)
        assert type(cfg.inversion.step) is float

    @pytest.mark.parametrize("section, key, value", [
        ("solver", "tolerance", True), ("inversion", "step", "0.01"),
        ("solver", "damping", "0.5")])
    def test_non_number_setting_rejected(self, tmp_path, section, key, value):
        # true used to load as 1.0 and numeric strings were parsed
        doc = base_config(tmp_path)
        doc[section] = dict(doc[section], **{key: value})
        with pytest.raises(ValueError, match=f"^{section} {key} must be a "
                                             "number, got"):
            cli.ExperimentConfig.from_json_dict(doc)

    @pytest.mark.parametrize("key, value, message", [
        ("eta", 10 ** 400, "is an integer too large for a float"),
        ("step", "x", "must be a number, got 'x'"),
        ("pad", True, "must be a number, got True")],
        ids=["eta_huge", "step_string", "pad_bool"])
    def test_bad_inversion_settings_rejected(self, key, value, message):
        # library callers skip the config reader: 10**400 and "x" used to
        # raise a bare TypeError from np.isfinite, and pad=True loaded
        with pytest.raises(ValueError, match=f"^{key} {message}"):
            cli.InversionSettings(**{key: value})

    def test_inversion_numpy_scalars_accepted(self):
        inv = cli.InversionSettings(eta=np.float64(1e-3), step=np.float32(1),
                                    pad=np.int64(2))
        assert (inv.eta, inv.step, inv.pad) == (1e-3, 1.0, 2)

    @pytest.mark.parametrize("key, pair", [
        ("z_grid", [True, 1]), ("z_grid", [0, 1, 5]), ("z_grid", ["0", 1]),
        ("z_grid", [0]), ("z_grid", 1.0), ("lambda_diag", [1.0, False]),
        ("lambda_diag", [1.0])],
        ids=["z_bool", "z_three", "z_string", "z_one", "z_scalar",
             "lambda_bool", "lambda_one"])
    def test_bad_complex_pair_rejected(self, tmp_path, key, pair):
        # [true, 1] used to load as 1+1j, [0, 1, 5] to drop the 5, and
        # ["0", 1] or [0] to raise an unnamed TypeError or IndexError
        good = [[1.0, 0.0]] * 15
        doc = base_config(tmp_path, mode="noncentered_pseudodiag",
                          lambda_diag=good + [[1.0, 0.0]])
        doc[key] = good + [pair]
        with pytest.raises(ValueError, match=rf"^{key}\[15\] must be an "
                                             r"\[re, im\] pair of numbers"):
            cli.ExperimentConfig.from_json_dict(doc)

    @pytest.mark.parametrize("section, key", [("solver", "tolerance"),
                                              ("inversion", "eta")])
    def test_huge_integer_setting_rejected(self, tmp_path, section, key):
        # float(10**400) used to raise a bare OverflowError
        doc = base_config(tmp_path)
        doc[section] = dict(doc[section], **{key: 10 ** 400})
        path = write_config(tmp_path, doc)
        with pytest.raises(ValueError, match=f"^{section} {key} is an "
                                             "integer too large for a float"):
            cli.load_config(path)

    @pytest.mark.parametrize("key, pair", [
        ("z_grid", [0, 10 ** 400]), ("lambda_diag", [-10 ** 400, 0])])
    def test_huge_integer_pair_rejected(self, tmp_path, key, pair):
        # complex(0, 10**400) used to raise a bare OverflowError
        good = [[1.0, 0.0]] * 15
        doc = base_config(tmp_path, mode="noncentered_pseudodiag",
                          lambda_diag=good + [[1.0, 0.0]])
        doc[key] = good + [pair]
        path = write_config(tmp_path, doc)
        with pytest.raises(ValueError, match=rf"^{key}\[15\] holds an integer "
                                             "too large for a float"):
            cli.load_config(path)

    @pytest.mark.parametrize("section, key, settings, value", [
        pytest.param(section, key, settings, value,
                     id=f"{section}_{key}-{label}")
        for section, key, settings, values in [
            ("solver", "tolerance", SolverConfig,
             {"bool": True, "string": "x", "huge": 10 ** 400}),
            ("inversion", "eta", cli.InversionSettings,
             {"bool": True, "string": "x", "huge": 10 ** 400}),
            ("solver", "grid_size", SolverConfig,
             {"fraction": 64.5, "bool": True, "string": "64"})]
        for label, value in values.items()])
    def test_reader_and_library_share_number_rule(self, tmp_path, section,
                                                  key, settings, value):
        # a config value and a library argument pass one check, the
        # settings class's own; the reader starts its message with the
        # section (inversion errors used to carry it from the class)
        with pytest.raises(ValueError) as library:
            settings(**{key: value})
        doc = base_config(tmp_path)
        doc[section] = dict(doc[section], **{key: value})
        with pytest.raises(ValueError) as reader:
            cli.ExperimentConfig.from_json_dict(doc)
        assert str(reader.value) == f"{section} {library.value}"

    def test_reader_and_library_share_integer_cast(self, tmp_path):
        # SolverConfig(grid_size=64.0) used to raise, while a config with
        # the same value loaded
        library = SolverConfig(grid_size=64.0)
        doc = base_config(tmp_path, solver={"grid_size": 64.0})
        reader = cli.ExperimentConfig.from_json_dict(doc).solver
        assert reader == library == SolverConfig(grid_size=64)
        assert type(reader.grid_size) is type(library.grid_size) is int

    def test_integer_pairs_load_as_floats(self, tmp_path):
        doc = base_config(tmp_path, z_grid=[[0, 1], [-2, 3]])
        cfg = cli.ExperimentConfig.from_json_dict(doc)
        assert cfg.z_grid == [1j, -2 + 3j]


class TestCompare:
    def test_file_vs_itself(self, tmp_path):
        vals = np.array([0.1, 0.5, 0.9])
        path = tmp_path / "f.csv"
        write_cdf_csv(DistributionFunction.ecdf(vals), path)
        levy, kolmogorov = cli.compare_distributions(path, path)
        assert levy == 0.0
        assert kolmogorov == 0.0

    def test_delta_masses(self, tmp_path):
        p0 = tmp_path / "d0.csv"
        p3 = tmp_path / "d3.csv"
        write_cdf_csv(DistributionFunction.ecdf([0.0]), p0)
        write_cdf_csv(DistributionFunction.ecdf([0.3]), p3)
        levy, kolmogorov = cli.compare_distributions(p0, p3)
        assert levy == pytest.approx(0.3, abs=1e-8)
        assert kolmogorov == 1.0


class TestSweepAlpha:
    def test_identity_filter_alpha_zero(self):
        from gramfield.symbols import FilterSequence2D
        h = FilterSequence2D({(0, 0): 1})
        rows = cli.sweep_alpha(h, [(8, 8), (16, 16)], [0, 1])
        assert all(r[2] == 0.0 for r in rows)

    def test_decay(self):
        from gramfield.symbols import FilterSequence2D
        h = FilterSequence2D({(0, 0): 1, (1, 1): 1})
        rows = cli.sweep_alpha(h, [(16, 16), (64, 64)], list(range(20)))
        assert rows[1][2] <= 0.5 * rows[0][2]

    def test_validation(self):
        from gramfield.symbols import FilterSequence2D
        h = FilterSequence2D({(0, 0): 1})
        with pytest.raises(ValueError):
            cli.sweep_alpha(h, [(8, 8)], [0])
        with pytest.raises(ValueError):
            cli.sweep_alpha(h, [(8, 8), (16, 16)], [])

    def test_bad_size_rejected_before_sampling(self, monkeypatch):
        # the library call used to sample and build the first size's
        # fields, then fail in sample_noise without naming the size
        from gramfield import matgen
        from gramfield.symbols import FilterSequence2D

        def no_sampling(*args, **kwargs):
            raise AssertionError("sample_noise called")

        monkeypatch.setattr(matgen, "sample_noise", no_sampling)
        h = FilterSequence2D({(0, 0): 1})
        with pytest.raises(ValueError,
                           match=r"^sizes\[1\]\[0\] must be at least 1, "
                                 r"got 0$"):
            cli.sweep_alpha(h, [(8, 8), (0, 16)], [0, 1])

    def test_repeated_seed_rejected(self):
        from gramfield.symbols import FilterSequence2D
        h = FilterSequence2D({(0, 0): 1})
        with pytest.raises(ValueError, match="seed 0 is listed more than"):
            cli.sweep_alpha(h, [(8, 8), (16, 16)], [0, 1, 0])

    @pytest.mark.parametrize("seeds, message", [
        ([1, 1.5], "^seed must be an integer, got 1.5$"),
        ([1, True], "^seed must be an integer, got True$"),
        ([1, 1.0], "^seed 1 is listed more than once$")],
        ids=["fraction", "bool", "repeated_float"])
    def test_non_integer_seed_rejected(self, seeds, message):
        # [1, 1.5] used to average seed 1's noise twice
        from gramfield.symbols import FilterSequence2D
        h = FilterSequence2D({(0, 0): 1, (1, 1): 1})
        with pytest.raises(ValueError, match=message):
            cli.sweep_alpha(h, [(8, 8), (16, 16)], seeds)


class TestSweepAlphaDocument:
    def run(self, tmp_path, **overrides):
        doc = {
            "filter2d": {"dims": 2, "entries": [[0, 0, 1.0, 0.0],
                                                [1, 1, 1.0, 0.0]]},
            "sizes": [[8, 8], [16, 16]],
            "seeds": [0, 1],
        }
        doc.update(overrides)
        doc = {key: value for key, value in doc.items()
               if value is not MISSING}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc))
        return cli.main(["sweep-alpha", str(path)])

    @pytest.mark.parametrize("key", ["filter2d", "sizes", "seeds"])
    def test_missing_key(self, tmp_path, key):
        # a missing seeds used to raise a bare KeyError
        with pytest.raises(ValueError,
                           match=f"^sweep-alpha config lacks '{key}'"):
            self.run(tmp_path, **{key: MISSING})

    @pytest.mark.parametrize("size, message", [
        (5, r"^sizes\[1\] must be an \[N, n\] pair of integers, got 5"),
        ([16], r"^sizes\[1\] must be an \[N, n\] pair of integers, got "
               r"\[16\]"),
        ([16, 8.5], r"^sizes\[1\]\[1\] must be an integer, got 8.5"),
        ([0, 16], r"^sizes\[1\]\[0\] must be at least 1, got 0$")],
        ids=["scalar", "single", "non_integer", "zero"])
    def test_bad_size(self, tmp_path, capsys, size, message):
        # 5 used to raise a bare TypeError and [16] an IndexError; [0, 16]
        # simulated the first size, then failed without naming the size
        with pytest.raises(ValueError, match=message):
            self.run(tmp_path, sizes=[[8, 8], size])
        assert capsys.readouterr().out == ""

    def test_unknown_key(self, tmp_path, capsys):
        # an extra key used to be ignored without a word
        with pytest.raises(ValueError,
                           match="^sweep-alpha config has unknown key 'size'"):
            self.run(tmp_path, size=[[32, 32]])
        assert capsys.readouterr().out == ""

    def test_sizes_not_list(self, tmp_path):
        with pytest.raises(ValueError, match="^sizes must be a list, got 8"):
            self.run(tmp_path, sizes=8)

    def test_bad_filter_names_its_key(self, tmp_path):
        with pytest.raises(ValueError, match=r"^filter2d: filter entries\[0\] "
                                             r"must be \[k, k, re, im\] of "
                                             "numbers, got"):
            self.run(tmp_path, filter2d={"dims": 2, "entries": [[0, 0, 1.0]]})

    def test_overflowing_alpha_named_before_output(self, tmp_path, capsys):
        # used to warn three times, print mean_alpha inf for both sizes and
        # monotone_decreasing,1, and exit 0
        big = {"dims": 2, "entries": [[0, 0, 1e200, 0.0], [1, 0, 1e200, 0.0]]}
        with pytest.raises(ValueError, match="overflows float64"):
            self.run(tmp_path, filter2d=big)
        assert capsys.readouterr().out == ""

    def test_filter2d_must_be_2d(self, tmp_path):
        # used to fail with "not enough values to unpack"
        with pytest.raises(ValueError,
                           match="^filter2d must be a 2-d filter, got dims=1"):
            self.run(tmp_path,
                     filter2d={"dims": 1, "entries": [[0, 1.0, 0.0]]})


class TestMainEntry:
    def test_run_and_compare_verbs(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path))
        assert cli.main(["run", str(path)]) == 0
        captured = capsys.readouterr().out
        assert "kolmogorov_pooled_vs_limit" in captured
        out = tmp_path / "out"
        assert cli.main(["compare", str(out / "pooled_ecdf.csv"),
                         str(out / "pooled_ecdf.csv")]) == 0
        captured = capsys.readouterr().out
        assert captured.splitlines()[-1] == "0,0"

    def test_sweep_alpha_verb(self, tmp_path, capsys):
        doc = {
            "filter2d": {"dims": 2, "entries": [[0, 0, 1.0, 0.0],
                                                [1, 1, 1.0, 0.0]]},
            "sizes": [[16, 16], [32, 32]],
            "seeds": list(range(5)),
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["sweep-alpha", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "N,n,mean_alpha"
        assert lines[-1] == "monotone_decreasing,1"
