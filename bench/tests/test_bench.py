"""Tests of the benchmark itself: smoke runs, span arithmetic, checks.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gramfield import cli, spectra  # noqa: E402


def tiny(name):
    """Workload ``name`` shrunk to run in well under a second."""
    doc = workloads.config(name)
    if doc["mode"] == "noncentered_pseudodiag":
        doc.update(N=16, n=32, lambda_diag=[
            [1.0 + 0.5 * math.cos(2.0 * math.pi * i / 16), 0.0]
            for i in range(16)])
    else:
        doc.update(N=12, n=12)
    doc["seeds"] = doc["seeds"][:2]
    doc["inversion"] = dict(doc["inversion"], step=0.05)
    return doc


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_workload(name, tmp_path):
    doc = tiny(name)
    samples, failures, first_dir = run.measure(doc, 0, True, tmp_path / "w")
    assert failures == []
    assert len(samples) == 5 and sum(s["traced"] for s in samples) == 2
    assert [s["warmup"] for s in samples] == [True] + [False] * 4

    accuracy, summary = reference.accuracy(doc, first_dir, tmp_path / "cache")
    assert run.check_accuracy(accuracy) == []
    assert summary["bai_holds_all"] == "1"
    e2e = run.end_to_end(samples, accuracy)
    assert e2e["run_s"] > 0 and e2e["setup_s"] > 0 and e2e["peak_rss_mb"] > 0
    assert e2e["solver_converged_frac"] == 1.0

    layers = run.per_layer(samples)
    assert layers["spectra.gram_spectrum_calls"] == 3 * len(doc["seeds"])
    assert layers["limit_solver.points"] == (
        len(doc["z_grid"])
        + len(reference.read_csv(first_dir / "limit_cdf.csv")))
    assert layers["cli.bytes_written"] == sum(
        p.stat().st_size for p in first_dir.iterdir())
    reaches_transforms = doc["mode"] == "noncentered_pseudodiag"
    assert (layers["transforms.fourier_matrix_calls"] > 0) == reaches_transforms


def test_reference_is_cached_by_config_key(tmp_path):
    doc = tiny("sweep_fine")
    grid = np.linspace(-1.0, 5.0, 31)
    first = reference.load_or_build(doc, grid, tmp_path)
    (cached,) = tmp_path.glob("ref-*.npz")
    assert cached.name.startswith("ref-" + reference.config_key(doc)[:20])
    again = reference.load_or_build(doc, grid, tmp_path)
    np.testing.assert_array_equal(first[1], again[1])

    shifted = dict(doc, seeds=[s + 1 for s in doc["seeds"]])
    assert reference.config_key(shifted) != reference.config_key(doc)
    # same key, other grid: the cached reference is not used
    other = reference.load_or_build(doc, grid[:-1], tmp_path)
    assert len(other[1]) == len(grid) - 1


def _span(name, parent, start, end):
    info = (4, 4) if name.endswith("gram_spectrum") else None
    return tracing.Span(name, parent, start, end, info)


def test_self_times_of_nested_bai_bound():
    spans = [
        _span("cli.main", None, 0.0, 10.0),
        _span("spectra.bai_bound", 0, 1.0, 7.0),
        _span("spectra.gram_spectrum", 1, 1.5, 3.0),
        _span("spectra.gram_spectrum", 1, 3.0, 4.5),
        _span("spectra.levy_distance", 1, 4.5, 6.5),
        _span("limit_solver.solve_centered_many", 0, 8.0, 9.0),
    ]
    assert tracing.self_times(spans) == pytest.approx(
        [10.0 - 6.0 - 1.0, 6.0 - 5.0, 1.5, 1.5, 2.0, 1.0])
    m = tracing.layer_metrics(spans[:5], [])
    assert m["spectra.bai_bound_self_s"] == pytest.approx(1.0)
    assert m["spectra.gram_spectrum_s"] == pytest.approx(3.0)
    assert m["spectra.levy_distance_s"] == pytest.approx(2.0)
    assert m["spectra.self_s"] == pytest.approx(6.0)
    assert m["cli.self_s"] == pytest.approx(4.0)


def test_tracer_makes_bai_bound_calls_child_spans():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 6, 8))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.bai_bound is spectra.bai_bound  # the cli's imported name
        cli.bai_bound(a, b)
    finally:
        tracer.uninstall()
    assert not hasattr(spectra.bai_bound, "__wrapped__")
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("spectra.bai_bound", None),
                     ("spectra.gram_spectrum", 0),
                     ("spectra.gram_spectrum", 0),
                     ("spectra.levy_distance", 0)]
    selfs = tracing.self_times(tracer.spans)
    children = sum(s.duration for s in tracer.spans[1:])
    assert selfs[0] == pytest.approx(tracer.spans[0].duration - children)


@pytest.fixture(scope="module")
def checked_run(tmp_path_factory):
    doc = tiny("readme_256")
    samples, failures, first_dir = run.measure(
        doc, 0, False, tmp_path_factory.mktemp("w"))
    assert failures == []
    return doc, samples[0], first_dir


def test_corrupted_artifact_fails_the_check(checked_run, tmp_path):
    _, record, first_dir = checked_run
    first = run.artifact_hashes(first_dir)
    copy = tmp_path / "copy"
    shutil.copytree(first_dir, copy)
    assert run.check_sample(record, copy, run.artifact_hashes(copy), first) is None

    path = copy / "limit_cdf.csv"
    data = bytearray(path.read_bytes())
    data[-3] = ord("0") if data[-3] != ord("0") else ord("1")
    path.write_bytes(bytes(data))
    problem = run.check_sample(record, copy, run.artifact_hashes(copy), first)
    assert problem is not None and "limit_cdf.csv" in problem


def test_failed_bai_bound_fails_the_check(checked_run, tmp_path):
    _, record, first_dir = checked_run
    copy = tmp_path / "copy"
    shutil.copytree(first_dir, copy)
    summary = copy / "summary.csv"
    summary.write_text(summary.read_text().replace("bai_holds_all,1",
                                                   "bai_holds_all,0"))
    problem = run.check_sample(record, copy, run.artifact_hashes(copy), None)
    assert problem is not None and "bai_holds_all" in problem


def test_wrong_limit_fails_the_accuracy_check(checked_run, tmp_path):
    doc, _, first_dir = checked_run
    copy = tmp_path / "copy"
    shutil.copytree(first_dir, copy)
    table = reference.read_csv(copy / "limit_cdf.csv")
    table[len(table) // 2, 1] += 1e-3
    np.savetxt(copy / "limit_cdf.csv", table, delimiter=",", header="x,F",
               comments="", fmt="%.17g")
    accuracy, _ = reference.accuracy(doc, copy, tmp_path / "cache")
    assert accuracy["limit_cdf_err"] == pytest.approx(1e-3, rel=1e-6)
    assert run.check_accuracy(accuracy) == [
        f"limit_cdf_err {accuracy['limit_cdf_err']:.3e} > {run.ERR_LIMIT}"]
