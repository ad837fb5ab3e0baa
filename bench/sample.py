"""One benchmark sample: a fresh interpreter running `gramfield run`.

    python3 bench/sample.py CONFIG START_NS TRACE

START_NS is the parent's ``time.monotonic_ns()`` just before it started
this process (CLOCK_MONOTONIC is shared by all processes), so setup_s
covers interpreter start, importing ``gramfield.cli`` and loading the
config.  run_s is the `run` verb from the call into the CLI to its
return.  The artifacts go to ``$GRAMFIELD_OUTPUT_DIR``.  The last line
of stdout is a JSON record of the sample.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

config_path, start_ns, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

import gramfield.cli as cli  # noqa: E402

cfg = cli.load_config(config_path)
setup_s = (time.monotonic_ns() - start_ns) / 1e9

main = cli.main
if trace:
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    main = tracer.wrap("cli.main", cli.main)

with contextlib.redirect_stdout(io.StringIO()):
    t0 = time.perf_counter()
    code = main(["run", config_path])
    run_s = time.perf_counter() - t0

record = {"exit": code, "setup_s": setup_s, "run_s": run_s,
          "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
if trace:
    layers = tracing.layer_metrics(tracer.spans, cfg.z_grid)
    out_dir = os.environ["GRAMFIELD_OUTPUT_DIR"]
    layers["cli.bytes_written"] = sum(
        entry.stat().st_size for entry in os.scandir(out_dir))
    record["layers"] = layers
print(json.dumps(record))
