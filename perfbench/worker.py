"""One cold pass of a benchmark workload, run by run.py in a fresh process.

The process starts a speed probe (speed.py), imports qarith, makes the pass
inputs from the seed, and then stamps the first workload call on the
system-wide monotonic clock.  Set-up runs from --started (when run.py started
the process) to that stamp.  It writes one JSON result to --out; with --trace
it also writes the pass's spans next to it.  With --setup-only it stops at
the stamp.

Times are reported twice: as work seconds (`*_work_s`, probe time excluded)
and rescaled to the probe's nominal speed (`setup_s`, `wall_s`).  A traced
pass stops the probe at the stamp, so that no probe lands inside its spans;
only its work seconds are meaningful.

    python3 perfbench/worker.py --workload verify --seed 1 --trace 0 --out r.json
"""
from __future__ import annotations

import time

from speed import SpeedProbe

# Probe from the first moment, so that set-up time is rescaled too.
_probe = SpeedProbe()
_probe.start()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--started", type=float,
                   help="time.monotonic() when the process was started "
                        "(default: the first probe)")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    started = args.started if args.started is not None else _probe.probes[0][0]

    inputs = workloads.make_inputs(args.workload, args.seed)
    tracer = Tracer(args.workload) if args.trace else None
    if tracer is not None:
        tracer.install()
    first_call = time.monotonic()
    if args.setup_only or tracer is not None:
        _probe.stop()
    result = {"python": platform.python_version(), "numpy": np.__version__}
    result["setup_work_s"], result["setup_s"] = _probe.measure(started, first_call)
    if not args.setup_only:
        outputs = workloads.run(args.workload, inputs, tracer)
        done = time.monotonic()
        if tracer is None:
            _probe.stop()
        result["wall_work_s"], result["wall_s"] = _probe.measure(first_call, done)
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.layer_metrics()
            spans_path = Path(args.out).with_suffix(".spans.json")
            spans_path.write_text(json.dumps(tracer.dump()))
        attempted, failures = workloads.check(
            args.workload, inputs, outputs, workloads.load_expected()
        )
        result.update(attempted=attempted, failed=len(failures),
                      failures=failures[:20])
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
