"""qarith benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload modexp-sweep --seed 1 --seconds 20 --trace 0

Run it from the repository root; it uses the sources under src/ as they are.
Every pass is a fresh worker process in its own empty directory under
.perfbench/, with BLAS/OpenMP pinned to one thread, so each pass starts
cold, as a `qarith` CLI invocation does.  A few set-up-only workers come
first to sample set-up time; passes then repeat while the next one would
still end within --seconds.  Each worker samples the machine's speed as it
runs (speed.py), and the reported times are rescaled to a fixed nominal
speed; the '#' lines also give the work seconds as measured.

--trace 0 reports the end-to-end metrics from untraced passes.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones, plus the tracing overhead.  Lines starting with '#' carry
the environment, each metric with its unit, and any failed check; the last
line is the JSON result.  A run report (and, traced, the spans) is written
to .perfbench/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class PassError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _run_worker(run_dir: Path, args, traced: bool, setup_only: bool,
                deadline: float) -> dict:
    pass_dir = Path(tempfile.mkdtemp(dir=run_dir))
    out = pass_dir / "result.json"
    started = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)), "--out", str(out),
           "--started", repr(started)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(
            cmd, cwd=pass_dir, env=_child_env(), capture_output=True, text=True,
            timeout=max(deadline - started, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"worker did not finish within {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise PassError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(out.read_text())
    result["traced"] = traced
    spans = out.with_suffix(".spans.json")
    if spans.exists():
        result["spans"] = json.loads(spans.read_text())
    shutil.rmtree(pass_dir)
    return result


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def measure(args) -> tuple[dict, list[dict], list[dict]]:
    OUT_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    began = time.monotonic()
    deadline = began + RUN_LIMIT_S
    try:
        probes = [_run_worker(run_dir, args, False, True, deadline)
                  for _ in range(SETUP_PROBES)]
        passes: list[dict] = []
        min_passes = 2 if args.trace else 1
        while True:
            started = time.monotonic()
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(_run_worker(run_dir, args, traced, False, deadline))
            # Start no pass that would likely end past --seconds.
            now = time.monotonic()
            if len(passes) >= min_passes and (now - began) + (now - started) > args.seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        metrics = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in traced[0]["layers"]
        }
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall_work_s"] for p in traced)
            - statistics.median(p["wall_work_s"] for p in plain)
        )
        units = {name: _unit(name) for name in metrics}
    else:
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "setup_s": statistics.median([p["setup_s"] for p in probes + plain]),
            "peak_rss_mb": statistics.median(p["maxrss_kb"] / 1024 for p in plain),
            "ok_frac": (attempted - failed) / attempted,
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    # Work seconds as measured, before rescaling to the nominal speed.
    work = {
        "wall_work_s": statistics.median(p["wall_work_s"] for p in plain),
        "setup_work_s": statistics.median(p["setup_work_s"] for p in probes + plain),
    }
    return result, work, probes, passes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=12345)  # catalog.DEFAULT_SEED
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    if not (ROOT / "src" / "qarith" / "__init__.py").is_file():
        print(f"error: no qarith sources under {ROOT / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    try:
        result, work, probes, passes = measure(args)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": passes[0]["python"],
        "numpy": passes[0]["numpy"], "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "passes": len(passes),
    }
    report = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({
        "env": env, "result": result, "work_s": work,
        "setup_probes_s": [q["setup_s"] for q in probes],
        "passes": [{k: v for k, v in q.items() if k != "spans"} for q in passes],
    }, indent=1))
    if args.trace:
        report.with_suffix(".spans.json").write_text(json.dumps(
            [{"pass": i, "spans": q["spans"]} for i, q in enumerate(passes)
             if q["traced"]]
        ))
    print("# env " + json.dumps(env))
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    for name, value in work.items():
        print(f"# {name} = {value:.6g} s (not rescaled)")
    for q in passes:
        for failure in q["failures"]:
            print(f"# FAIL {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
