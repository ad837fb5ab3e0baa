"""gramfield benchmark: `gramfield run` on fixed workloads.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  Each sample is one fresh
interpreter running `gramfield run CONFIG` (bench/sample.py); samples
run one after another (a closed loop, one client) until ``--seconds``
is spent.  The first sample warms the page cache and is checked but not
timed; at least MIN_SAMPLES timed samples follow (MIN_SAMPLES_TRACED
with ``--trace 1``).  ``--seed`` is added to every seed of the workload
config (default 0, the configs as written).

Checks: every sample exits 0, its artifacts are byte-identical (sha256)
to the first sample's, ``bai_holds_all`` is 1, and the limit CDF and
Stieltjes values agree with a tolerance-1e-12 reference within
ERR_LIMIT.  A sample failing a check counts as failed.

With ``--trace 0`` the result holds the end-to-end metrics (medians over
samples); with ``--trace 1`` untraced and traced samples alternate and
the result holds the per-layer metrics of the traced ones, plus the
tracing overhead.  The last stdout line is the result JSON; the line
before it is the full record (environment, per-sample values).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CACHE = ROOT / ".bench_cache"
SAMPLE = Path(__file__).resolve().parent / "sample.py"
MIN_SAMPLES = 3
MIN_SAMPLES_TRACED = 4  # two traced, two untraced
SAMPLE_TIMEOUT_S = 120
ERR_LIMIT = 1e-4  # far above the ~1e-6 errors of a 1e-7 tolerance solve


def artifact_hashes(out_dir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).iterdir())}


def run_sample(config_path, out_dir, trace):
    env = dict(os.environ, GRAMFIELD_OUTPUT_DIR=str(out_dir))
    start = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, str(SAMPLE), str(config_path), str(start),
         "1" if trace else "0"],
        env=env, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S)
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if record["exit"] != 0:
        record["error"] = f"gramfield run returned {record['exit']}"
    return record


def check_sample(record, out_dir, hashes, first_hashes):
    """Why the sample's artifacts are wrong, or None when they are right."""
    if "error" in record:
        return record["error"]
    if first_hashes is not None and hashes != first_hashes:
        bad = sorted(k for k in hashes.keys() | first_hashes.keys()
                     if hashes.get(k) != first_hashes.get(k))
        return f"artifacts differ from the first sample's: {bad}"
    summary = (Path(out_dir) / "summary.csv").read_text()
    if "\nbai_holds_all,1\n" not in summary:
        return "summary.csv does not report bai_holds_all = 1"
    return None


def measure(doc, seconds, trace, work_dir):
    """Run samples of ``doc`` for ``seconds``.

    Returns (samples, failures, first_dir).  Sample k writes to
    ``work_dir/sample<k>``.  The artifacts of the first sample that
    passes its checks stay in ``first_dir`` as the reference the later
    samples must match; theirs are deleted once checked.
    """
    if work_dir.exists():
        shutil.rmtree(work_dir)
    work_dir.mkdir(parents=True)
    config_path = work_dir / "config.json"
    config_path.write_text(json.dumps(doc))
    samples, failures = [], []
    first_hashes = first_dir = None
    deadline = time.monotonic() + seconds
    k = 0
    while True:
        traced = trace and k % 2 == 1
        out_dir = work_dir / f"sample{k}"
        t0 = time.monotonic()
        record = run_sample(config_path, out_dir, traced)
        record["traced"] = traced
        record["warmup"] = k == 0
        hashes = artifact_hashes(out_dir) if out_dir.is_dir() else {}
        problem = check_sample(record, out_dir, hashes, first_hashes)
        if problem is not None:
            failures.append({"sample": k, "problem": problem})
        elif first_hashes is None:
            first_hashes, first_dir = hashes, out_dir
        else:
            shutil.rmtree(out_dir)
        samples.append(record)
        k += 1
        minimum = MIN_SAMPLES_TRACED if trace else MIN_SAMPLES
        last = time.monotonic() - t0
        if k > minimum and time.monotonic() + last > deadline:
            return samples, failures, first_dir


def check_accuracy(accuracy):
    """Problems with the accuracy against the reference, if any."""
    return [f"{name} {accuracy[name]:.3e} > {ERR_LIMIT}"
            for name in ("limit_cdf_err", "stieltjes_err")
            if not accuracy[name] <= ERR_LIMIT]


def median_of(samples, key):
    return statistics.median(s[key] for s in samples)


def tail_percentile(values):
    """The highest percentile with at least ten samples beyond it, if >p50."""
    n = len(values)
    if n < 21:
        return None
    q = 100 * (n - 10) // n
    return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "affinity": sorted(os.sched_getaffinity(0)),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
    }


def end_to_end(samples, accuracy):
    samples = [s for s in samples if not s["warmup"]]
    metrics = {key: median_of(samples, key)
               for key in ("run_s", "setup_s", "peak_rss_mb")}
    metrics.update(accuracy)
    metrics["solver_converged_frac"] = 1.0 - accuracy["solver_nonconverged_frac"]
    return metrics


def per_layer(samples):
    traced = [s for s in samples if s["traced"]]
    plain = [s for s in samples if not (s["traced"] or s["warmup"])]
    names = traced[0]["layers"]
    metrics = {name: statistics.median(s["layers"][name] for s in traced)
               for name in names}
    metrics["trace.run_s"] = median_of(traced, "run_s")
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - median_of(plain, "run_s")
    return metrics


def load_declared():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="offset added to every seed of the workload")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gramfield" / "cli.py").is_file():
        print(f"bench: no gramfield sources under {SRC}", file=sys.stderr)
        return 2
    declared_e2e, declared_layers = load_declared()
    sys.path.insert(0, str(SRC))
    import reference

    doc = workloads.config(args.workload, args.seed)
    work_dir = WORK / args.workload
    samples, failures, first_dir = measure(doc, args.seconds,
                                           bool(args.trace), work_dir)
    ok = [s for i, s in enumerate(samples)
          if not any(f["sample"] == i for f in failures)]

    accuracy, summary = {}, {}
    if ok:
        accuracy, summary = reference.accuracy(doc, first_dir, CACHE)
        problems = check_accuracy(accuracy)
        if problems:
            # every kept sample wrote these same bytes, so all are wrong
            failures += [{"sample": "all", "problem": p} for p in problems]
            ok = []
    correct = not failures

    metrics, wanted = {}, {}
    if correct:
        metrics, wanted = ((per_layer(samples), declared_layers) if args.trace
                           else (end_to_end(ok, accuracy), declared_e2e))
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "samples": samples, "failures": failures,
              "accuracy": accuracy, "summary": summary,
              "environment": environment()}
    tail = tail_percentile([s["run_s"] for s in ok
                            if not (s["traced"] or s["warmup"])])
    if tail:
        record[f"run_s_p{tail[0]}"] = tail[1]

    print(f"workload {args.workload}  seed offset {args.seed}  "
          f"samples {len(samples)}  failed {len(samples) - len(ok)}")
    for name, value in {**metrics, **accuracy}.items():
        unit = wanted.get(name, "1")  # the accuracy metrics are ratios
        print(f"  {name:40s} {value:<24.6g} {unit}")
    for failure in failures:
        print(f"  FAILED sample {failure['sample']}: {failure['problem']}")
    print(json.dumps(record))
    result = {
        "correct": correct,
        "attempted": len(samples),
        "failed": len(samples) - len(ok),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
