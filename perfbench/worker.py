"""One workload in a fresh process: set-up, timed passes, output checks.

Started by run.py, never by hand. Prints ``@@READY`` once set-up is done,
``@@SPEED <factor>`` for scaling the set-up time, then, unless
``--setup-only``, ``@@RESULT <json>`` after the last pass.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import importlib
import json
import os
import statistics
import sys
import time
from fractions import Fraction

from spans import LAYERS, SpanRecorder, layer_metrics
from workloads import WORKLOADS, Pass, Verdicts


# Machine-speed calibration. The host's speed drifts by tens of percent
# over seconds to minutes (other tenants share it). A fixed kernel is
# timed at most every CAL_EVERY_S seconds between calls, and each call's
# time is scaled by CAL_REF_S over the median kernel time within
# CAL_WINDOW_S of it: seconds at a fixed machine speed. The window keeps
# the kernel's own noise out of the scale while still following the
# drift. The kernel allocates small objects and does Fraction arithmetic,
# like most of bvlab; it tracked the drift of the workloads' calls more
# closely than a loop of integer and numpy arithmetic did.
CAL_REF_S = 0.025
CAL_SAMPLES = 3
CAL_SETUP_SAMPLES = 7  # one measurement per set-up, so a steadier one
CAL_EVERY_S = 0.5
CAL_WINDOW_S = 2.0


def _kernel() -> float:
    t0 = time.perf_counter()
    total = Fraction(0)
    pairs = []
    for k in range(1, 3000):
        total += Fraction(k % 13, k % 17 + 1)
        pairs.append((k, total))
    table = {i: (i, str(i)) for i in range(40_000)}
    sorted(table.values(), key=lambda t: -t[0])
    return time.perf_counter() - t0


def calibrate(samples: int = CAL_SAMPLES) -> float:
    """Median kernel time now; divide CAL_REF_S by it to get the speed."""
    return statistics.median(_kernel() for _ in range(samples))


class Speed:
    """Machine speed relative to the reference, sampled over the run."""

    def __init__(self):
        self.times: list[float] = []
        self.values: list[float] = []

    def tick(self) -> None:
        """Measure the speed if the last measurement is too old."""
        if not self.times or time.perf_counter() - self.times[-1] > CAL_EVERY_S:
            t0 = time.perf_counter()
            value = CAL_REF_S / calibrate()
            self.times.append((t0 + time.perf_counter()) / 2.0)
            self.values.append(value)

    def at(self, t: float) -> float:
        """Median speed within CAL_WINDOW_S of time t."""
        lo = bisect.bisect_left(self.times, t - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.times, t + CAL_WINDOW_S)
        if lo == hi:  # no sample in the window: take the nearest
            lo = min(max(lo - 1, 0), len(self.times) - 1)
            hi = lo + 1
        return statistics.median(self.values[lo:hi])

    def scaled(self, timing: dict) -> dict[str, float]:
        """Call durations (label -> (start, seconds)) at reference speed."""
        return {label: dt * self.at(t0 + dt / 2.0)
                for label, (t0, dt) in timing.items()}


def _null_region(name):
    return contextlib.nullcontext()


def _by_kind(op_times: dict) -> dict[str, float]:
    """Median call times summed per kind of call (the label's first word)."""
    out: dict[str, float] = {}
    for label, ts in op_times.items():
        kind = label.split(" ", 1)[0]
        out[kind] = out.get(kind, 0.0) + statistics.median(ts)
    return out


def _import_bvlab(root: str) -> dict:
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    mods = {name: importlib.import_module(f"bvlab.{name}") for name in LAYERS}
    where = os.path.dirname(os.path.abspath(mods["arith"].__file__))
    if where != os.path.join(src, "bvlab"):
        raise SystemExit(f"bvlab imported from {where}, not from {src}")
    return mods


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workload = WORKLOADS[args.workload]()
    mods = _import_bvlab(args.root)
    rec = SpanRecorder(f"{args.workload}-{args.seed}-{os.getpid()}") if args.trace else None
    if rec:
        with rec.region("bench.setup"):
            rec.install(mods)
            workload.setup(args.work)
            rec.uninstall()
    else:
        workload.setup(args.work)
    print("@@READY", flush=True)
    # the speed that scales this process's set-up time
    print(f"@@SPEED {CAL_REF_S / calibrate(CAL_SETUP_SAMPLES)!r}", flush=True)
    if args.setup_only:
        return 0

    inp = workload.inputs(args.seed)
    with open(os.path.join(os.path.dirname(__file__), "references.json")) as fh:
        refs = json.load(fh)
    verdicts = Verdicts()
    speed = Speed()
    untraced: list[dict] = []  # per pass: label -> (start, seconds)
    traced: list[dict] = []
    measured = 0.0
    k = 0
    while True:
        is_traced = rec is not None and k % 2 == 1
        gc.collect()
        p = Pass(rec.region if is_traced else _null_region, speed.tick,
                 workload.prepare(inp))
        if is_traced:
            # the calibration kernel runs between calls, so its time is
            # part of bench.self_s
            rec.phase = f"pass{k}"
            rec.install(mods)
            with rec.region("bench.pass"):
                workload.run(inp, p)
            rec.uninstall()
            traced.append(p.timing)
        else:
            workload.run(inp, p)
            untraced.append(p.timing)
        last = sum(dt for _, dt in p.timing.values())
        measured += last
        workload.check(inp, p, refs, verdicts, first=k == 0)
        del p
        k += 1
        # stop before a pass that would run past the window
        if k >= (2 if rec else 1) and measured + last > args.seconds:
            break
    speed.tick()  # a last sample after the last call
    defect_failed, defect_total = workload.known_defect(inp, refs)

    op_times: dict[str, list[float]] = {}
    for timing in untraced:
        for label, t in speed.scaled(timing).items():
            op_times.setdefault(label, []).append(t)
    untraced_s = [sum(speed.scaled(t).values()) for t in untraced]
    traced_s = [sum(speed.scaled(t).values()) for t in traced]
    result = {
        # each call's median over the passes, summed: one pass's time with
        # bursts of machine noise filtered call by call
        "wall_s": sum(statistics.median(ts) for ts in op_times.values()),
        "kinds": _by_kind(op_times),
        "untraced": untraced_s,
        "raw": [sum(dt for _, dt in t.values()) for t in untraced],
        "traced": traced_s,
        "attempted": verdicts.attempted,
        "errors": verdicts.errors,
        "mismatches": verdicts.mismatches,
        "messages": verdicts.messages,
        "known_defect": [defect_failed, defect_total],
        "layers": None,
    }
    if rec:
        layers = layer_metrics(rec.spans, len(traced))
        layers["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
        layers["perron.known_defect_failed"] = defect_failed
        result["layers"] = layers
        out_dir = os.path.join(args.root, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        rec.write(os.path.join(out_dir, f"spans-{args.workload}.csv"))
    print("@@RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
