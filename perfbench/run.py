"""bvlab benchmark: time to an oracle-checked result, per workload.

Run from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all

Each run starts fresh worker processes (worker.py) with BLAS threads
capped at 1: a few that only do the set-up, for a median ``setup_s``,
and one that does the set-up, times passes of the workload until
``--seconds`` of passes are measured, and checks every pass's outputs.
The last line of output is one JSON object with the run's metrics;
``--trace 1`` reports the per-layer metrics from the span recorder
instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("scan", "moments", "certify", "pipeline")
SETUP_SAMPLES = 5  # set-ups per run, the median is reported
CHILD_TIMEOUT_S = 170.0
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def child_env() -> dict:
    env = dict(os.environ)
    env.update({
        # worker threads (pipeline: workers = 2) times BLAS threads <= 2
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": os.path.join(ROOT, "src"),
    })
    return env


def spawn(argv: list[str], work: str) -> dict:
    """Run one worker to completion; returns its set-up time, result,
    exit code and peak RSS."""
    os.makedirs(work, exist_ok=True)
    cmd = [sys.executable, WORKER, "--root", ROOT, "--work", work, *argv]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    setup_s = result = speed = None
    try:
        for line in proc.stdout:
            if line.startswith("@@READY"):
                setup_s = time.perf_counter() - t0
            elif line.startswith("@@SPEED "):
                speed = float(line.split()[1])
            elif line.startswith("@@RESULT "):
                result = json.loads(line[len("@@RESULT "):])
            else:
                sys.stderr.write(line)
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        watchdog.cancel()
    return {"setup_s": setup_s, "speed": speed, "result": result,
            "code": proc.returncode, "peak_rss_mb": usage.ru_maxrss / 1024.0}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run of one workload; raises RuntimeError if a worker
    fails to finish."""
    base = os.path.join(ROOT, ".perfbench_work", f"{os.getpid()}-{name}")
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    try:
        setups = []
        if not trace:
            for i in range(SETUP_SAMPLES - 1):
                only = spawn(argv + ["--setup-only"], os.path.join(base, f"setup{i}"))
                if only["code"] != 0 or only["speed"] is None:
                    raise RuntimeError(f"{name}: set-up worker exited with {only['code']}")
                setups.append(only)
        main = spawn(argv, os.path.join(base, "main"))
    finally:
        shutil.rmtree(base, ignore_errors=True)
    res = main["result"]
    if main["code"] != 0 or res is None:
        raise RuntimeError(f"{name}: worker exited with {main['code']}")
    setups.append(main)
    failed = res["errors"] + res["mismatches"]
    out = {
        "correct": res["mismatches"] == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "passes": res["untraced"],
        "traced_passes": res["traced"],
        "kinds": res["kinds"],
        "raw": res["raw"],
        "messages": res["messages"],
        "known_defect": res["known_defect"],
    }
    if trace:
        out["metrics"] = {k: {"value": v, "unit": layer_unit(k)}
                          for k, v in sorted(res["layers"].items())}
    else:
        values = {
            "wall_s": res["wall_s"],
            # each set-up scaled by the speed its process measured right after
            "setup_s": statistics.median(s["setup_s"] * s["speed"] for s in setups),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        out["metrics"] = {k: {"value": values[k], "unit": unit}
                          for k, unit in END_TO_END}
    return out


def layer_unit(metric: str) -> str:
    if metric.endswith("_frac"):
        return "ratio"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    return "count"


def report(name: str, out: dict) -> None:
    """Human-readable lines; the JSON line printed after them is the result."""
    for key, m in out["metrics"].items():
        print(f"{name:9s} {key:42s} {m['value']:14.6g} {m['unit']}")
    failed, total = out["failed"], out["attempted"]
    print(f"{name:9s} {'fail_frac':42s} {failed / total:14.6g} ratio")
    print(f"{name:9s} {'ops_failed / ops_total':42s} {failed:>8d} / {total} count")
    d_failed, d_total = out["known_defect"]
    if d_total:
        print(f"{name:9s} {'known defect: failed / tried (untimed)':42s} "
              f"{d_failed:>8d} / {d_total} count")
    passes = ", ".join(f"{t:.3f}" for t in out["passes"] + out["traced_passes"])
    print(f"{name:9s} {'passes, scaled (s)':42s} {passes}")
    raw = ", ".join(f"{t:.3f}" for t in out["raw"])
    print(f"{name:9s} {'passes, as timed (s)':42s} {raw}")
    kinds = ", ".join(f"{k} {t:.3f}" for k, t in out["kinds"].items())
    print(f"{name:9s} {'median call time by kind (s)':42s} {kinds}")
    for msg in out["messages"][:10]:
        print(f"{name:9s} failed: {msg}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "bvlab", "__init__.py")):
        print(f"error: no bvlab sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(name, results[name])
    if args.workload == "all":
        line = {n: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
                for n, r in results.items()}
    else:
        r = results[args.workload]
        line = {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
