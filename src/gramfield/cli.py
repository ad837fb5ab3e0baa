"""Experiment runner: simulate Gram spectra, solve their limits, compare.

Verbs:

    gramfield run <config.json>          full pipeline, CSV artifacts
    gramfield compare <F.csv> <G.csv>    Levy/Kolmogorov between CDF files
    gramfield sweep-alpha <config.json>  periodization-gap decay over sizes

A run config is a single JSON document; complex numbers are [re, im]
pairs.  Outputs are deterministic given the config: identical configs
produce byte-identical artifacts (all floats printed with 17
significant digits).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import matgen, spectra, transforms
from .limit_solver import (SolverConfig, measure_from_lambda,
                           measure_from_profile, solve_centered_many,
                           solve_noncentered_many, write_solver_csv)
from .spectra import (EmpiricalSpectrum, bai_bound, default_inversion_grid,
                      invert_stieltjes_to_cdf, kolmogorov_distance,
                      levy_distance, read_cdf_csv, write_cdf_csv)
from .symbols import (FilterSequence1D, FilterSequence2D, SpectralSymbol,
                      filter_from_json_dict)

OUTPUT_DIR_ENV = "GRAMFIELD_OUTPUT_DIR"

MODES = ("centered", "noncentered_pseudodiag", "square_toeplitz", "real_case")


@dataclass
class InversionSettings:
    eta: float = 1e-3
    step: float = 5e-3
    pad: float = 1.0

    def __post_init__(self):
        for name in ("eta", "step"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"inversion {name} must be finite and "
                                 f"positive, got {value}")
        if not (np.isfinite(self.pad) and self.pad >= 0):
            raise ValueError("inversion pad must be finite and nonnegative, "
                             f"got {self.pad}")


@dataclass
class ExperimentConfig:
    mode: str
    filter2d: object
    N: int
    n: int
    seeds: list
    z_grid: list
    filter1d: object = None
    lambda_diag: np.ndarray = None
    solver: SolverConfig = field(default_factory=SolverConfig)
    inversion: InversionSettings = field(default_factory=InversionSettings)
    output_dir: str = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        _check_filter(self.filter2d, "filter2d", 2)
        if self.filter1d is not None:
            _check_filter(self.filter1d, "filter1d", 1)
        if self.N < 1 or self.n < 1:
            raise ValueError("N and n must be positive")
        if self.mode == "square_toeplitz":
            if self.N != self.n:
                raise ValueError("square_toeplitz mode requires N == n")
            if self.filter1d is None:
                raise ValueError("square_toeplitz mode requires filter1d")
        elif self.N > self.n:
            raise ValueError("rectangular modes require N <= n")
        if self.mode == "noncentered_pseudodiag" and self.lambda_diag is None:
            raise ValueError("noncentered_pseudodiag mode requires lambda_diag")
        if self.lambda_diag is not None:
            if not np.all(np.isfinite(self.lambda_diag)):
                raise ValueError("lambda_diag entries must be finite")
            # raises unless len(lambda_diag) == min(N, n)
            matgen.build_pseudo_diagonal(self.lambda_diag, self.N, self.n)
        if self.mode == "real_case" and not self.filter2d.is_real:
            raise ValueError("real_case mode requires a real filter")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        _check_distinct(self.seeds)
        for seed in self.seeds:
            matgen.NoiseSpec(seed=seed)  # raises outside [0, 2**64)
        for z in self.z_grid:
            if not (np.isfinite(z) and complex(z).imag > 0):
                raise ValueError(
                    f"z grid point {z} is not a finite point of the upper "
                    "half-plane")
        if self.output_dir is not None and \
                not isinstance(self.output_dir, (str, os.PathLike)):
            raise ValueError(
                f"output_dir must be a string, got {self.output_dir!r}")

    @classmethod
    def from_json_dict(cls, doc):
        _require(doc, ("mode", "filter2d", "N", "n", "seeds"), "run config")
        lam = doc.get("lambda_diag")
        return cls(
            mode=doc["mode"],
            filter2d=filter_from_json_dict(doc["filter2d"]),
            filter1d=(filter_from_json_dict(doc["filter1d"])
                      if "filter1d" in doc else None),
            lambda_diag=(np.array(_complex_pairs(lam, "lambda_diag"))
                         if lam is not None else None),
            N=_integer(doc["N"], "N"),
            n=_integer(doc["n"], "n"),
            seeds=[_integer(s, "seed")
                   for s in _list(doc["seeds"], "seeds")],
            z_grid=_complex_pairs(doc.get("z_grid", []), "z_grid"),
            solver=_settings(SolverConfig, doc.get("solver", {}), "solver"),
            inversion=_settings(InversionSettings, doc.get("inversion", {}),
                                "inversion"),
            output_dir=doc.get("output_dir"))


def _require(doc, keys, what):
    """Raise unless ``doc`` is a JSON object holding every one of ``keys``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be an object, got {doc!r}")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ValueError(f"{what} lacks {', '.join(map(repr, missing))}")


def _list(value, name):
    """``value`` itself; raises naming the key unless it is a list."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return value


def _check_filter(filt, name, dims):
    """Raise unless ``filt`` is a ``dims``-d filter sequence."""
    if not isinstance(filt, (FilterSequence1D, FilterSequence2D)[dims - 1]):
        raise ValueError(f"{name} must be a {dims}-d filter, got "
                         f"dims={getattr(filt, 'dims', None)!r}")


def _integer(value, name):
    """``value`` as an int: ints and integral floats pass, anything else
    (booleans too) raises naming the setting.  An int is never routed
    through float, so seeds up to 2**64 - 1 stay exact."""
    if isinstance(value, bool) or not (isinstance(value, int) or (
            isinstance(value, float) and value.is_integer())):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _is_number(value):
    """True for a JSON number: an int or a float, but not a boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _to_float(value, message):
    """``float(value)``; an integer too large for a float raises
    ValueError(message) instead of a bare OverflowError."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(message) from None


def _complex_pairs(pairs, name):
    """``[re, im]`` pairs as complex numbers; raises naming the key and
    the index of the first entry that is not a list of two numbers or
    holds an integer too large for a float."""
    out = []
    for i, p in enumerate(_list(pairs, name)):
        if not (isinstance(p, list) and len(p) == 2
                and all(_is_number(x) for x in p)):
            raise ValueError(f"{name}[{i}] must be an [re, im] pair of "
                             f"numbers, got {p!r}")
        message = f"{name}[{i}] holds an integer too large for a float"
        out.append(complex(_to_float(p[0], message), _to_float(p[1], message)))
    return out


def _settings(cls, doc, section):
    """``cls(**doc)`` for the dataclass ``cls``: values must be integers
    where the field's default is an int and numbers, cast to float,
    otherwise; null is kept only where the default is None, omitted keys
    keep the defaults, unknown keys raise, and so does a ``doc`` that is
    not an object."""
    if not isinstance(doc, dict):
        raise ValueError(f"{section} must be an object, got {doc!r}")
    defaults = {f.name: f.default for f in fields(cls)}
    values = {}
    for key, value in doc.items():
        if key not in defaults:
            raise ValueError(f"unknown {section} setting {key!r}")
        name = f"{section} {key}"
        if value is None and defaults[key] is not None:
            raise ValueError(f"{name} must not be null")
        if isinstance(defaults[key], int):
            value = _integer(value, name)
        elif value is not None:
            if not _is_number(value):
                raise ValueError(f"{name} must be a number, got {value!r}")
            value = _to_float(
                value, f"{name} is an integer too large for a float")
        values[key] = value
    return cls(**values)


def _check_distinct(seeds):
    """Raise on a repeated seed, which would be simulated and counted
    twice in every mean and pooled spectrum."""
    seen = set()
    for seed in seeds:
        if seed in seen:
            raise ValueError(f"seed {seed} is listed more than once")
        seen.add(seed)


def load_config(path):
    with open(path) as fh:
        return ExperimentConfig.from_json_dict(json.load(fh))


def _g17(x):
    return f"{x:.17g}"


def _deterministic_part(cfg):
    """The array added to the field, or None for centered modes."""
    if cfg.mode == "square_toeplitz":
        return matgen.build_toeplitz(cfg.filter1d, cfg.n)
    if cfg.mode == "noncentered_pseudodiag":
        lam = matgen.build_pseudo_diagonal(cfg.lambda_diag, cfg.N, cfg.n)
        f_left = transforms.fourier_matrix(cfg.N)
        f_right = transforms.fourier_matrix(cfg.n)
        return f_left.conj().T @ lam @ f_right
    return None


def _metric_lines(summary):
    """``key,value`` lines of a summary, floats with 17 significant digits."""
    return "".join(f"{key},{_g17(val) if isinstance(val, float) else val}\n"
                   for key, val in summary.items())


def _coupled_fields(h, N, n, dist, seed):
    """(raw, periodized) field arrays of ``h`` built from one noise sheet."""
    noise = matgen.sample_noise(N, n, matgen.NoiseSpec(dist, seed),
                                margin=h.radius)
    return (matgen.build_field(h, noise),
            matgen.build_periodized_field(h, noise))


def _simulate_seed(cfg, det, seed):
    """One seed: spectrum of the (possibly shifted) Gram matrix plus the
    coupling statistics between raw and periodized fields."""
    dist = "real_standard" if cfg.mode == "real_case" else "complex_standard"
    z_raw, z_per = _coupled_fields(cfg.filter2d, cfg.N, cfg.n, dist, seed)
    if det is None:
        m_raw, m_per = z_raw, z_per
    else:
        m_raw, m_per = z_raw + det, z_per + det
    spectrum = spectra.gram_spectrum(m_raw)
    lhs, rhs = bai_bound(m_raw, m_per)
    alpha, beta, beta_tilde = spectra.trace_stats(z_raw, z_per, det)
    return {
        "seed": seed,
        "spectrum": spectrum,
        "bai_lhs": lhs,
        "bai_rhs": rhs,
        "alpha": alpha,
        "beta": beta,
        "beta_tilde": beta_tilde,
    }


def _solve_batch(cfg, z_values):
    """Kernels' f-values plus residual/iteration bookkeeping per z."""
    profile = SpectralSymbol(cfg.filter2d).profile
    c = cfg.N / cfg.n
    if cfg.mode in ("centered", "real_case"):
        return solve_centered_many(profile, c, z_values, cfg.solver)
    if cfg.mode == "square_toeplitz":
        # the Toeplitz part is the pseudo-diagonal model at c = 1 with
        # diagonal psi on the solver's midpoint nodes
        H = measure_from_profile(SpectralSymbol(cfg.filter1d).profile,
                                 cfg.solver.grid_size)
    else:
        H = measure_from_lambda(
            matgen.build_pseudo_diagonal(cfg.lambda_diag, cfg.N, cfg.n))
    pairs = solve_noncentered_many(profile, c, H, z_values, cfg.solver)
    return [p[0] for p in pairs]


def run_experiment(cfg: ExperimentConfig):
    """Execute a configured run; returns the summary dict.

    Seeds are simulated one after another, in order.  Artifacts written
    to the output directory: per-seed eigenvalue CSVs, the pooled ECDF,
    the solver table at the configured z grid, the inverted limiting CDF,
    and a summary CSV.  Non-converged solver points are recorded, not
    fatal.
    """
    out_dir = cfg.output_dir or os.environ.get(OUTPUT_DIR_ENV) or "."
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    det = _deterministic_part(cfg)
    results = [_simulate_seed(cfg, det, s) for s in cfg.seeds]

    for res in results:
        np.savetxt(out / f"eigenvalues_seed{res['seed']}.csv",
                   res["spectrum"].eigenvalues, fmt="%.17g",
                   header="eigenvalue", comments="")

    pooled_vals = np.sort(np.concatenate(
        [res["spectrum"].eigenvalues for res in results]))
    pooled = EmpiricalSpectrum(eigenvalues=pooled_vals)
    pooled_ecdf = pooled.ecdf()
    write_cdf_csv(pooled_ecdf, out / "pooled_ecdf.csv")

    nonconverged = 0
    if cfg.z_grid:
        kernels = _solve_batch(cfg, cfg.z_grid)
        nonconverged += sum(not k.converged for k in kernels)
        write_solver_csv(kernels, out / "stieltjes.csv")

    inv = cfg.inversion
    grid = default_inversion_grid(pooled, step=inv.step, pad=inv.pad)
    sweep = _solve_batch(cfg, grid + 1j * inv.eta)
    nonconverged += sum(not k.converged for k in sweep)
    f_values = np.array([k.value for k in sweep])
    limit = invert_stieltjes_to_cdf(f_values, grid, inv.eta)
    write_cdf_csv(limit, out / "limit_cdf.csv")

    summary = {
        "mode": cfg.mode,
        "N": cfg.N,
        "n": cfg.n,
        "n_seeds": len(cfg.seeds),
        "levy_pooled_vs_limit": levy_distance(pooled_ecdf, limit),
        "kolmogorov_pooled_vs_limit": kolmogorov_distance(pooled_ecdf, limit),
        "bai_holds_all": int(all(r["bai_lhs"] <= r["bai_rhs"] for r in results)),
        "bai_lhs_max": max(r["bai_lhs"] for r in results),
        "bai_rhs_min": min(r["bai_rhs"] for r in results),
        "alpha_mean": float(np.mean([r["alpha"] for r in results])),
        "beta_mean": float(np.mean([r["beta"] for r in results])),
        "beta_tilde_mean": float(np.mean([r["beta_tilde"] for r in results])),
        "solver_nonconverged": nonconverged,
    }
    (out / "summary.csv").write_text(
        "metric,value\n" + _metric_lines(summary))
    return summary


def compare_distributions(path_f, path_g):
    """Levy and Kolmogorov distances between two CDF CSV files."""
    F = read_cdf_csv(path_f)
    G = read_cdf_csv(path_g)
    return levy_distance(F, G), kolmogorov_distance(F, G)


def sweep_alpha(h, sizes, seeds):
    """Mean periodization gap alpha per (N, n) size over the seed list.

    alpha = (1/n) Tr (Z - Zt)(Z - Zt)* measures how much the raw field
    differs from its periodization; it decays as the window grows.
    """
    if len(sizes) < 2:
        raise ValueError("sweep_alpha needs at least two sizes")
    if not seeds:
        raise ValueError("sweep_alpha needs a nonempty seed list")
    _check_distinct(seeds)
    rows = []
    for N, n in sizes:
        alphas = [spectra.trace_stats(*_coupled_fields(
            h, N, n, "complex_standard", seed))[0] for seed in seeds]
        rows.append((N, n, float(np.mean(alphas))))
    return rows


def _cmd_run(args):
    cfg = load_config(args.config)
    summary = run_experiment(cfg)
    print(_metric_lines(summary), end="")
    return 0


def _cmd_compare(args):
    levy, kolmogorov = compare_distributions(args.cdf_f, args.cdf_g)
    print("levy,kolmogorov")
    print(f"{_g17(levy)},{_g17(kolmogorov)}")
    return 0


def _cmd_sweep_alpha(args):
    with open(args.config) as fh:
        doc = json.load(fh)
    _require(doc, ("filter2d", "sizes", "seeds"), "sweep-alpha config")
    h = filter_from_json_dict(doc["filter2d"])
    _check_filter(h, "filter2d", 2)
    sizes = []
    for i, p in enumerate(_list(doc["sizes"], "sizes")):
        if not (isinstance(p, list) and len(p) == 2):
            raise ValueError(f"sizes[{i}] must be an [N, n] pair of "
                             f"integers, got {p!r}")
        sizes.append(tuple(_integer(x, f"sizes[{i}][{j}]")
                           for j, x in enumerate(p)))
    seeds = [_integer(s, "seed") for s in _list(doc["seeds"], "seeds")]
    rows = sweep_alpha(h, sizes, seeds)
    print("N,n,mean_alpha")
    for N, n, alpha in rows:
        print(f"{N},{n},{_g17(alpha)}")
    means = [r[2] for r in rows]
    decreasing = all(b <= a for a, b in zip(means, means[1:]))
    print(f"monotone_decreasing,{int(decreasing)}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="gramfield",
        description="Gram spectra of stationary Gaussian fields: simulation, "
                    "limit solving, and distribution comparison.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("config")
    p_run.set_defaults(fn=_cmd_run)

    p_cmp = sub.add_parser("compare", help="distances between two CDF CSVs")
    p_cmp.add_argument("cdf_f")
    p_cmp.add_argument("cdf_g")
    p_cmp.set_defaults(fn=_cmd_compare)

    p_sw = sub.add_parser("sweep-alpha",
                          help="periodization gap decay over matrix sizes")
    p_sw.add_argument("config")
    p_sw.set_defaults(fn=_cmd_sweep_alpha)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
