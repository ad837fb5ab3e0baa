"""Tight-tolerance reference solutions and the accuracy metrics.

The reference is the workload config solved again at tolerance 1e-12
on the identical z points: the configured z grid (stieltjes.csv) and
the inversion grid the run wrote to limit_cdf.csv.  The inversion grid
depends on the pooled spectrum, hence on the seeds, so a cached
reference is keyed by a hash of the whole config, seeds included, and
regenerated when the key or the grid does not match.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from gramfield import cli
from gramfield.limit_solver import SolverConfig
from gramfield.spectra import invert_stieltjes_to_cdf

TOLERANCE = 1e-12


def config_key(doc):
    canon = json.dumps({"config": doc, "reference_tolerance": TOLERANCE},
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _solve(cfg, z):
    # the CLI's own dispatch from a config's mode to its solver
    return np.array([k.value for k in cli._solve_batch(cfg, z)])


def load_or_build(doc, grid, cache_dir):
    """(f at the z grid, F on ``grid``) of the reference for ``doc``."""
    key = config_key(doc)
    path = Path(cache_dir) / f"ref-{key[:20]}.npz"
    if path.exists():
        with np.load(path) as ref:
            if str(ref["key"]) == key and np.array_equal(ref["grid"], grid):
                return ref["f_zgrid"], ref["F"]
    cfg = cli.ExperimentConfig.from_json_dict(doc)
    cfg = dataclasses.replace(
        cfg, solver=dataclasses.replace(cfg.solver, tolerance=TOLERANCE))
    eta = cfg.inversion.eta
    f_zgrid = _solve(cfg, cfg.z_grid) if cfg.z_grid else np.zeros(0, complex)
    F = invert_stieltjes_to_cdf(_solve(cfg, grid + 1j * eta), grid, eta).fs
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp.npz")
    np.savez(tmp, key=key, grid=grid, f_zgrid=f_zgrid, F=F)
    tmp.replace(path)
    return f_zgrid, F


def accuracy(doc, out_dir, cache_dir):
    """Accuracy metrics of one run's artifacts against the reference."""
    out = Path(out_dir)
    limit = read_csv(out / "limit_cdf.csv")
    f_zgrid_ref, F_ref = load_or_build(doc, limit[:, 0], cache_dir)
    summary = dict(line.split(",", 1) for line in
                   (out / "summary.csv").read_text().splitlines()[1:])
    metrics = {
        "limit_cdf_err": float(np.abs(limit[:, 1] - F_ref).max()),
        "kolmogorov_vs_limit": float(summary["kolmogorov_pooled_vs_limit"]),
        "levy_vs_limit": float(summary["levy_pooled_vs_limit"]),
    }
    points = len(limit)
    if doc["z_grid"]:
        table = read_csv(out / "stieltjes.csv")
        f = table[:, 2] + 1j * table[:, 3]
        metrics["stieltjes_err"] = float(np.abs(f - f_zgrid_ref).max())
        points += len(table)
    else:
        metrics["stieltjes_err"] = 0.0
    nonconverged = int(summary["solver_nonconverged"])
    metrics["solver_nonconverged_frac"] = nonconverged / points
    return metrics, summary
