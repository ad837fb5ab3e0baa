"""The artifact hash script runs configs that the CLI accepts, one or
more in every mode, hashes them the same whatever BLAS thread count the
calling shell sets, heads its output with the thread count and the
numpy/BLAS build, and ends it with the hashes of a `compare` and a
`sweep-alpha` run."""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from gramfield import cli

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "artifact_hashes.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("artifact_hashes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_artifact_hash_configs_cover_every_mode(tool):
    docs = tool.configs()
    assert len(docs) == 7
    assert {cli.ExperimentConfig.from_json_dict(doc).mode
            for doc in docs.values()} == set(cli.MODES)


def test_child_env_pins_blas_threads(tool, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    env = tool.child_env(ROOT)
    assert tool.THREADS == 1
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        assert env[variable] == "1"
    assert env["PYTHONPATH"] == str(ROOT / "src")


def test_header_names_threads_and_numpy_build(tool, monkeypatch, capsys):
    monkeypatch.setattr(tool, "configs", dict)     # no config to run
    assert tool.main([str(ROOT)]) == 0
    threads, build, compare, sweep = capsys.readouterr().out.splitlines()
    assert threads == "threads 1"
    assert compare.startswith("compare ")
    assert sweep.startswith("sweep-alpha ")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert build == f"numpy {np.__version__} {blas['name']} {blas['version']}"


def test_sweep_alpha_line_hashes_the_verb_stdout(tool, monkeypatch, capsys,
                                                 tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(tool.SWEEP_ALPHA))
    assert cli.main(["sweep-alpha", str(path)]) == 0
    expected = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    monkeypatch.setattr(tool, "configs", dict)
    assert tool.main([str(ROOT)]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == f"sweep-alpha {expected}"


def test_compare_line_hashes_the_verb_stdout(tool, monkeypatch, capsys,
                                            tmp_path):
    paths = []
    for name, text in tool.COMPARE.items():
        paths.append(tmp_path / name)
        paths[-1].write_text(text)
    assert cli.main(["compare", *map(str, paths)]) == 0
    out = capsys.readouterr().out
    # the Kolmogorov distance is read at the tie: the step table jumps
    # from 0.25 to 0.75 at 1, where the linear table is 0.5
    assert out.splitlines()[1].endswith(",0.25")
    expected = hashlib.sha256(out.encode()).hexdigest()
    monkeypatch.setattr(tool, "configs", dict)
    assert tool.main([str(ROOT)]) == 0
    assert f"compare {expected}" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("name", ["square_toeplitz", "readme_256"])
def test_hash_ignores_caller_thread_setting(tool, monkeypatch, tmp_path,
                                            name):
    # readme_256's eigenvalues differ in the last bits between 1 and 2
    # BLAS threads; the configs at N <= 64 agree either way
    doc = tool.configs()[name]
    hashes = []
    for threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        workdir = tmp_path / threads
        workdir.mkdir()
        hashes.append(tool.artifact_hash(ROOT, name, doc, workdir))
    assert hashes[0] == hashes[1]
