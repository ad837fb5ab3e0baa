"""Experiment runner: simulate Gram spectra, solve their limits, compare.

Verbs:

    gramfield run <config.json>          full pipeline, CSV artifacts
    gramfield compare <F.csv> <G.csv>    Levy/Kolmogorov between CDF files
    gramfield sweep-alpha <config.json>  periodization-gap decay over sizes

A run config is a single JSON document; complex numbers are [re, im]
pairs.  Outputs are deterministic given the config: on one numpy/BLAS
build and BLAS thread count, identical configs produce byte-identical
artifacts (all floats printed with 17 significant digits).  Across
thread counts LAPACK's eigenvalues differ only by rounding, at most
2.7e-14 on the configs of ``tools/artifact_hashes.py``.
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
from .symbols import (_complex_row, _integer, _list, _positive,
                      filter_from_json_dict)

OUTPUT_DIR_ENV = "GRAMFIELD_OUTPUT_DIR"

MODES = ("centered", "noncentered_pseudodiag", "square_toeplitz", "real_case")


@dataclass
class InversionSettings:
    eta: float = 1e-3
    step: float = 5e-3
    pad: float = 1.0

    def __post_init__(self):
        self.eta = _positive(self.eta, "eta")
        self.step = _positive(self.step, "step")
        self.pad = _positive(self.pad, "pad", zero=True)


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
        self.N, self.n = _integer(self.N, "N", 1), _integer(self.n, "n", 1)
        self.seeds = _distinct_seeds(self.seeds)
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        for key, mode in (("filter1d", "square_toeplitz"),
                          ("lambda_diag", "noncentered_pseudodiag")):
            if (getattr(self, key) is None) == (self.mode == mode):
                raise ValueError(f"{key} is required in {mode} mode and "
                                 "not read in any other; the mode is "
                                 f"{self.mode!r}")
        if self.mode == "square_toeplitz":
            if self.N != self.n:
                raise ValueError("square_toeplitz mode requires N == n")
            far = [k for k in self.filter1d.support if abs(k) >= self.n]
            if far:  # build_toeplitz would drop them, the limit keep them
                raise ValueError(f"filter1d tap {far[0]} is outside the "
                                 f"{self.n} x {self.n} Toeplitz matrix")
        elif self.N > self.n:
            raise ValueError("rectangular modes require N <= n")
        for key in ("filter2d", "filter1d"):
            d, size = _span(getattr(self, key)), self.solver.grid_size
            if size <= 2 * d:
                raise ValueError(f"solver grid_size {size} must exceed 2d, "
                                 f"twice {key}'s largest tap gap d = {d}")
        if self.lambda_diag is not None:
            if not np.all(np.isfinite(self.lambda_diag)):
                raise ValueError("lambda_diag entries must be finite")
            # raises unless len(lambda_diag) == min(N, n)
            matgen.build_pseudo_diagonal(self.lambda_diag, self.N, self.n)
        if self.mode == "real_case" and not self.filter2d.is_real:
            raise ValueError("real_case mode requires a real filter")
        if not self.seeds:
            raise ValueError("at least one seed is required")
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
        _require(doc, ("mode", "filter2d", "N", "n", "seeds"), "run config",
                 tuple(f.name for f in fields(cls)))
        lam = doc.get("lambda_diag")
        return cls(
            mode=doc["mode"],
            filter2d=_read_filter(doc, "filter2d", 2),
            filter1d=(_read_filter(doc, "filter1d", 1)
                      if "filter1d" in doc else None),
            lambda_diag=(np.array(_complex_pairs(lam, "lambda_diag"))
                         if "lambda_diag" in doc else None),
            N=doc["N"], n=doc["n"],
            seeds=_list(doc["seeds"], "seeds"),
            z_grid=_complex_pairs(doc.get("z_grid", []), "z_grid"),
            solver=_settings(SolverConfig, doc.get("solver", {}), "solver"),
            inversion=_settings(InversionSettings, doc.get("inversion", {}),
                                "inversion"),
            output_dir=doc.get("output_dir"))


def _span(filt):
    """Largest tap-index difference d on one axis of ``filt`` (0 if None or
    empty); M midpoints alias its degree-d profile unless M > 2d."""
    ks = () if filt is None else filt.arrays()[:-1]
    return max((int(np.ptp(k)) for k in ks if len(k)), default=0)


def _require(doc, keys, what, optional=()):
    """Raise unless ``doc`` is a JSON object holding every one of ``keys``
    and no key outside ``keys`` and ``optional``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be an object, got {doc!r}")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ValueError(f"{what} lacks {', '.join(map(repr, missing))}")
    unknown = [key for key in doc if key not in keys + optional]
    if unknown:
        raise ValueError(f"{what} has unknown key {unknown[0]!r}")


def _read_filter(doc, key, dims):
    """The ``dims``-d filter of the filter document ``doc[key]``; every
    error names the key."""
    try:
        filt = filter_from_json_dict(doc[key])
    except ValueError as err:
        raise ValueError(f"{key}: {err}") from None
    if filt.dims != dims:
        raise ValueError(f"{key} must be a {dims}-d filter, got "
                         f"dims={filt.dims!r}")
    return filt


def _complex_pairs(pairs, name):
    """``[re, im]`` pairs as complex numbers; raises naming the key and
    the index of the first entry that is not a list of two numbers or
    holds an integer too large for a float."""
    return [_complex_row(p, 2, f"{name}[{i}]", "an [re, im] pair of numbers")
            for i, p in enumerate(_list(pairs, name))]


def _settings(cls, doc, section):
    """``cls(**doc)`` for the settings dataclass ``cls``, which casts and
    checks its own fields; omitted keys keep the defaults.  Raises when
    ``doc`` is not an object or holds an unknown key or a null, and
    starts every error, ``cls``'s own too, with ``section``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{section} must be an object, got {doc!r}")
    names = {f.name for f in fields(cls)}
    for key, value in doc.items():
        if key not in names:
            raise ValueError(f"unknown {section} setting {key!r}")
        if value is None:
            raise ValueError(f"{section} {key} must not be null")
    try:
        return cls(**doc)
    except ValueError as err:
        raise ValueError(f"{section} {err}") from None


def _distinct_seeds(seeds):
    """``seeds`` as ints, cast by ``NoiseSpec``, which raises on a
    non-integer or a seed outside [0, 2**64); raises on a repeated seed,
    which would be simulated and counted twice in every mean and pooled
    spectrum."""
    seeds = [matgen.NoiseSpec(seed=seed).seed for seed in seeds]
    seen = set()
    for seed in seeds:
        if seed in seen:
            raise ValueError(f"seed {seed} is listed more than once")
        seen.add(seed)
    return seeds


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
        return transforms.congruence(
            transforms.fourier_matrix(cfg.N).conj().T, lam,
            transforms.fourier_matrix(cfg.n).conj().T)
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
    profile = cfg.filter2d.profile
    c = cfg.N / cfg.n
    if cfg.mode in ("centered", "real_case"):
        return solve_centered_many(profile, c, z_values, cfg.solver)
    if cfg.mode == "square_toeplitz":
        # the Toeplitz part is the pseudo-diagonal model at c = 1 with
        # diagonal psi on the solver's midpoint nodes
        H = measure_from_profile(cfg.filter1d.profile, cfg.solver.grid_size)
    else:
        H = measure_from_lambda(cfg.lambda_diag)
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
    Each size is an [N, n] pair (a list or a tuple) of integers >= 1.
    """
    pairs = []
    for i, p in enumerate(sizes):
        if not (isinstance(p, (list, tuple)) and len(p) == 2):
            raise ValueError(f"sizes[{i}] must be an [N, n] pair of "
                             f"integers, got {p!r}")
        pairs.append(tuple(_integer(x, f"sizes[{i}][{j}]", 1)
                           for j, x in enumerate(p)))
    if len(pairs) < 2:
        raise ValueError("sweep_alpha needs at least two sizes")
    if not seeds:
        raise ValueError("sweep_alpha needs a nonempty seed list")
    seeds = _distinct_seeds(seeds)
    rows = []
    for N, n in pairs:
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
    h = _read_filter(doc, "filter2d", 2)
    rows = sweep_alpha(h, _list(doc["sizes"], "sizes"),
                       _list(doc["seeds"], "seeds"))
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
