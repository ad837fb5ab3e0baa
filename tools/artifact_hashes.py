"""Hash what `gramfield run` writes, to check that a change keeps the
artifacts byte-identical.

    python tools/artifact_hashes.py SOURCE_TREE

SOURCE_TREE is a checkout of this repository (the directory that holds
``src/gramfield``).  For each of seven configs the script runs
``gramfield run`` from that tree in a fresh interpreter and prints one
line ``<config> <sha256>``, the hash taken over the run's stdout and every
file it wrote, in name order.  The configs are the four benchmark
workloads of ``bench/workloads.py`` next to this script, whichever tree
is hashed, and three that reach the other code paths: ``square_toeplitz``
with the README's complex ``filter1d``, ``real_case``, and a rectangular
``noncentered_pseudodiag`` with a complex ``lambda_diag``.  A last line
``sweep-alpha <sha256>`` hashes the stdout of ``gramfield sweep-alpha``
on ``SWEEP_ALPHA`` (the README filter at sizes 8 x 8 and 16 x 16, seeds
0 and 1).  Run it on two trees and diff the output.  The configs check
bytes, not accuracy.

The eigenvalues LAPACK returns differ in the last bits between BLAS
thread counts, so every child runs with the BLAS thread variables set to
``THREADS``, whatever the calling shell sets.  The first two output
lines, ``threads <THREADS>`` and ``numpy <version> <BLAS name> <BLAS
version>``, record that and the numpy/BLAS build every child imports
(read with ``np.show_config(mode="dicts")``, numpy 1.25 or later).  Two
lists compare only when both lines agree.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

# imports gramfield from the tree on PYTHONPATH, refuses any other copy,
# and runs the CLI on the remaining arguments
_RUN = ("import sys, gramfield, gramfield.cli\n"
        "if not gramfield.__file__.startswith(sys.argv[1]):\n"
        "    sys.exit(f'imported {gramfield.__file__}, not {sys.argv[1]}')\n"
        "sys.exit(gramfield.cli.main(sys.argv[2:]))\n")

SWEEP_ALPHA = {"filter2d": {"dims": 2, "entries": [[0, 0, 1.0, 0.0],
                                                   [1, 0, 0.5, 0.0],
                                                   [0, 1, 0.25, 0.0]]},
               "sizes": [[8, 8], [16, 16]], "seeds": [0, 1]}


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def configs():
    """The seven run configs by name."""
    workloads = _workloads()
    docs = {name: workloads.config(name) for name in workloads.WORKLOADS}
    small = dict(workloads.config("sweep_fine"), N=64, n=64, seeds=[0, 1],
                 inversion={"eta": 1e-2, "step": 2e-2, "pad": 1.0})
    docs["square_toeplitz"] = dict(
        small, mode="square_toeplitz",
        filter1d={"dims": 1, "entries": [[0, 1.0, 0.0], [1, 0.5, 0.25],
                                         [-2, 0.3, 0.0]]})
    docs["real_case"] = dict(small, mode="real_case", n=96)
    docs["noncentered_complex"] = dict(
        small, mode="noncentered_pseudodiag", N=48, n=96,
        lambda_diag=[[math.cos(0.3 * i), 0.5 * math.sin(0.7 * i)]
                     for i in range(48)])
    return docs


def child_env(tree):
    """The caller's environment with ``tree``'s sources on PYTHONPATH and
    every BLAS thread variable set to ``THREADS``."""
    return dict(os.environ, PYTHONPATH=str(tree / "src"),
                **dict.fromkeys(THREAD_VARIABLES, str(THREADS)))


def header():
    """The lines printed before the hashes: the BLAS thread count of
    every child, then the numpy version and BLAS build they import."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [f"threads {THREADS}",
            f"numpy {np.__version__} {blas['name']} {blas['version']}"]


def _gramfield(tree, verb, name, doc, workdir):
    """The stdout of ``gramfield <verb>`` on ``doc``, run from ``tree``."""
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN, str(tree / "src") + os.sep, verb,
         str(path)],
        env=child_env(tree), cwd=workdir, capture_output=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{name}: gramfield {verb} failed\n{proc.stderr.decode()}")
    return proc.stdout


def artifact_hash(tree, name, doc, workdir):
    """sha256 over the stdout and the artifacts of one run."""
    out = workdir / name
    digest = hashlib.sha256(_gramfield(tree, "run", name,
                                       dict(doc, output_dir=str(out)),
                                       workdir))
    for artifact in sorted(out.iterdir()):
        digest.update(artifact.name.encode() + b"\0")
        digest.update(artifact.read_bytes())
    return digest.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path,
                        help="checkout whose src/gramfield is run")
    tree = parser.parse_args(argv).tree.resolve()
    if not (tree / "src" / "gramfield" / "__init__.py").is_file():
        parser.error(f"{tree} holds no src/gramfield")
    print(*header(), sep="\n", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in configs().items():
            print(name, artifact_hash(tree, name, doc, Path(tmp)), flush=True)
        stdout = _gramfield(tree, "sweep-alpha", "sweep-alpha", SWEEP_ALPHA,
                            Path(tmp))
        print("sweep-alpha", hashlib.sha256(stdout).hexdigest(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
