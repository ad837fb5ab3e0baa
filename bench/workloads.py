"""The benchmark workloads: fixed `gramfield run` configs.

All four use the README filter h = {(0,0): 1, (1,0): 0.5, (0,1): 0.25}
and the README solver settings unless a workload overrides them.  Each
stresses a different layer; WHY says which and why that matters.
"""

from __future__ import annotations

import copy
import math

FILTER = {"dims": 2, "entries": [[0, 0, 1.0, 0.0],
                                 [1, 0, 0.5, 0.0],
                                 [0, 1, 0.25, 0.0]]}
SOLVER = {"grid_size": 64, "tolerance": 1e-7,
          "max_iterations": 100000, "damping": 0.5}
Z_GRID = [[0.0, 1.0], [1.0, 1.0], [2.0, 0.5]]


def _config(**overrides):
    doc = {"mode": "centered", "filter2d": FILTER, "N": 256, "n": 256,
           "seeds": list(range(10)), "z_grid": Z_GRID, "solver": SOLVER,
           "inversion": {"eta": 1e-3, "step": 5e-3, "pad": 1.0}}
    doc.update(overrides)
    return doc


WORKLOADS = {
    "readme_256": _config(),
    "sim_1024": _config(N=1024, n=1024, seeds=[0, 1],
                        inversion={"eta": 1e-2, "step": 2e-2, "pad": 1.0}),
    "sweep_fine": _config(N=64, n=64, seeds=[0],
                          inversion={"eta": 1e-3, "step": 1e-3, "pad": 1.0}),
    "noncentered_atoms": _config(
        mode="noncentered_pseudodiag", N=256, n=512, seeds=[0, 1],
        lambda_diag=[[1.0 + 0.5 * math.cos(2.0 * math.pi * i / 256), 0.0]
                     for i in range(256)]),
}

WHY = {
    "readme_256": "the README config users run: mixed load, eigensolves and "
                  "Levy bisection ~60%, solver ~30%, per-seed eigenvalue "
                  "CSVs visible",
    "sim_1024": "simulation-heavy: six 1024x1024 eigensolves carry >95% of "
                "the run, the solver sweep is small",
    "sweep_fine": "solver-heavy with cheap iterations: ~7.8k sweep points "
                  "at 64 quadrature nodes, simulation <2%",
    "noncentered_atoms": "solver bound by per-iteration matmuls (256 atoms "
                         "+ 64 tail nodes, coupled states); the only "
                         "workload reaching transforms",
}


def config(name, seed_offset=0):
    """The run config of workload ``name`` with every seed shifted."""
    doc = copy.deepcopy(WORKLOADS[name])
    doc["seeds"] = [s + seed_offset for s in doc["seeds"]]
    return doc
