"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each ``bvlab`` module through
module attributes, so a call made inside the package (``exception_scan``
calling ``e_star``) goes through the wrapper and nests as a child span.
Every reference to a wrapped function in any ``bvlab`` module, including
names imported with ``from .x import f`` and entries of module-level
dicts, is swapped, and swapped back by ``uninstall``.

Each span records its id, name, start, end, parent span, run id, whether
it raised, and a work count taken from its return value. Spans stay in
memory; ``write`` puts them on disk once, when the run ends.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict

LAYERS = ("arith", "characters", "progressions", "heathbrown", "dpoly",
          "exponents", "perron", "cli", "reports")

# Public methods worth a span of their own; per-character methods are
# left out because there are hundreds of thousands of calls per pass.
METHODS = (
    ("characters", "CharacterGroup", "__init__"),
    ("characters", "CharacterGroup", "characters"),
    ("exponents", "PartitionOutcome", "verify"),
)

# Work counts taken from return values, by span name.
COUNTERS = {
    "characters.CharacterGroup.characters": len,
    "dpoly.build_triple_family":
        lambda fam: sum(len(J.points) for J in fam.spaced_sets),
    "exponents.polytope_scan": lambda res: res.tuple_count,
}


def _wrappable(obj, module_name: str) -> bool:
    return ((inspect.isfunction(obj)
             or isinstance(obj, functools._lru_cache_wrapper))
            and getattr(obj, "__module__", None) == module_name)


class SpanRecorder:
    """Collects spans from wrapped ``bvlab`` functions and from explicit
    ``region`` blocks in the benchmark's own code."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.phase = "setup"  # part of the run id of every new span
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._main_thread = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        self._swapped: list[tuple] = []

    # ------------------------------------------------------------ spans

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[list[int], int, int | None, float]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:  # first span in a pool thread: caused by the main thread's span
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent, time.perf_counter()

    def _close(self, opened, name: str, failed: bool, count: int) -> None:
        stack, sid, parent, start = opened
        end = time.perf_counter()
        stack.pop()
        self.spans.append((sid, name, start, end, parent,
                           f"{self.run_id}/{self.phase}", failed, count))

    @contextlib.contextmanager
    def region(self, name: str):
        """Span around a block of benchmark code that calls into a layer
        without going through a wrapped function (a property access)."""
        opened = self._open()
        failed = False
        try:
            yield
        except BaseException:
            failed = True
            raise
        finally:
            self._close(opened, name, failed, 0)

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # one span per resumption, so time spent producing items
                # is charged to the generator's layer, not the consumer
                it = fn(*args, **kwargs)
                while True:
                    opened = self._open()
                    try:
                        item = next(it)
                    except StopIteration:
                        self._close(opened, name, False, 0)
                        return
                    except BaseException:
                        self._close(opened, name, True, 0)
                        raise
                    self._close(opened, name, False, 1)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = self._open()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(opened, name, True, 0)
                raise
            # the count is taken after the call, but before the span
            # closes, so it stays inside the layer's own time
            self._close(opened, name, False, count(out) if count else 1)
            return out
        return wrapper

    # -------------------------------------------------------- patching

    def install(self, modules: dict) -> None:
        """Wrap the public functions of ``modules`` (short name -> module)
        and the methods in ``METHODS``; swap every reference."""
        if not self._wrappers:
            for short, mod in modules.items():
                for attr, obj in vars(mod).items():
                    if not attr.startswith("_") and _wrappable(obj, mod.__name__):
                        self._wrappers[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = self._wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._swap(mod, attr, hit[1])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in list(obj.items()):
                        hit = self._wrappers.get(id(val))
                        if hit is not None and hit[0] is val:
                            self._swap(obj, key, hit[1])
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name)
            orig = cls.__dict__[meth]
            name = (f"{short}.{cls_name}" if meth == "__init__"
                    else f"{short}.{cls_name}.{meth}")
            self._swap(cls, meth, self.wrap(name, orig))

    def _swap(self, owner, key, new) -> None:
        if isinstance(owner, dict):
            self._swapped.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._swapped.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, new)

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._swapped):
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._swapped.clear()

    # ----------------------------------------------------------- output

    def write(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start", "end", "parent", "run",
                          "failed", "count"])
            out.writerows(self.spans)


def self_times(spans) -> dict[int, float]:
    """Self time per span id: the part of the span's interval that no
    child span covers. Where spans of several threads overlap, each
    instant is shared evenly among the spans running their own code
    then, so self times add up to the wall time the spans cover."""
    children = defaultdict(list)
    for sid, _name, start, end, parent, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    events = []
    for sid, _name, start, end, *_ in spans:
        cur = start
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, start), min(b, end)
            if a > cur:
                events.append((cur, 1, sid))
                events.append((a, -1, sid))
            cur = max(cur, b)
        if end > cur:
            events.append((cur, 1, sid))
            events.append((end, -1, sid))
    events.sort()
    own = defaultdict(float)
    active: dict[int, int] = {}
    last = None
    for t, step, sid in events:
        if active and t > last:
            share = (t - last) / len(active)
            for k in active:
                own[k] += share
        last = t
        depth = active.get(sid, 0) + step
        if depth:
            active[sid] = depth
        else:
            active.pop(sid, None)
    return own


def outermost(spans) -> list[tuple]:
    """Spans with no ancestor of the same name, so inclusive times of
    recursive or re-entrant calls are not counted twice."""
    by_id = {s[0]: s for s in spans}
    keep = []
    for s in spans:
        parent = s[4]
        while parent is not None:
            p = by_id[parent]
            if p[1] == s[1]:
                break
            parent = p[4]
        else:
            keep.append(s)
    return keep


# ------------------------------------------------------ per-layer metrics

SUBCOMMANDS = ("sieve", "characters", "exceptions", "hb-verify", "meanvalue",
               "lemma4", "exponents", "perron")

# metric -> span names whose outermost spans' durations it sums
INCLUSIVE = {
    "arith.build_tables_s": ("arith.build_tables",),
    "arith.save_tables_s": ("arith.save_tables",),
    "arith.load_tables_s": ("arith.load_tables",),
    "progressions.exception_scan_s": ("progressions.exception_scan",),
    "progressions.e_star_s": ("progressions.e_star",),
    "progressions.e_dagger_s": ("progressions.e_dagger",),
    "heathbrown.verify_identity_s": ("heathbrown.verify_identity",),
    "heathbrown.reconstruct_s": ("heathbrown.reconstruct",),
    "dpoly.build_triple_family_s": ("dpoly.build_triple_family",),
    "dpoly.fourth_moment_report_s": ("dpoly.fourth_moment_report",),
    "dpoly.derivative_second_moment_report_s":
        ("dpoly.derivative_second_moment_report",),
    "perron.truncated_perron_s": ("perron.truncated_perron",),
    "exponents.polytope_scan_s": ("exponents.polytope_scan",),
    "exponents.partition_s": ("exponents.partition_exponents",),
    **{f"cli.{sub}_s": (f"cli.cmd_{sub.replace('-', '_')}",)
       for sub in SUBCOMMANDS},
}

# metric -> span names whose calls it counts, failed ones included
CALLS = {
    "characters.groups": ("characters.CharacterGroup",),
    "progressions.moduli": ("progressions.e_star", "progressions.e_dagger"),
    "perron.calls": ("perron.truncated_perron",),
}

# metric -> span names whose work counts (COUNTERS) it sums
COUNTS = {
    "characters.characters": ("characters.CharacterGroup.characters",),
    "dpoly.triples": ("dpoly.build_triple_family",),
    "exponents.tuples": ("exponents.polytope_scan",),
}


def layer_metrics(spans, traced_passes: int) -> dict[str, float]:
    """Per-layer figures for one verified result: the traced set-up once
    plus the mean of the traced passes. Span run ids end in ``/setup``
    for set-up spans and ``/pass<k>`` for pass spans."""
    own = self_times(spans)

    def weight(s) -> float:
        return 1.0 if s[5].endswith("/setup") else 1.0 / traced_passes

    out: dict[str, float] = {}
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_s"] = 0.0
    for s in spans:
        layer = s[1].split(".", 1)[0]
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + weight(s) * own[s[0]]
    top = outermost(spans)
    for metric, names in INCLUSIVE.items():
        out[metric] = sum(weight(s) * (s[3] - s[2]) for s in top if s[1] in names)
    out["reports.write_s"] = sum(weight(s) * (s[3] - s[2]) for s in top
                                 if s[1].rsplit(".", 1)[-1].startswith("write_"))
    for metric, names in CALLS.items():
        out[metric] = sum(weight(s) for s in spans if s[1] in names)
    for metric, names in COUNTS.items():
        out[metric] = sum(weight(s) * s[7] for s in spans if s[1] in names)
    out["arith.calls"] = sum(weight(s) for s in spans if s[1].startswith("arith."))
    scan_s = out["exponents.polytope_scan_s"]
    out["exponents.tuples_per_s"] = out["exponents.tuples"] / scan_s if scan_s else 0.0
    out["trace.accounted_s"] = sum(weight(s) * own[s[0]] for s in spans)
    out["trace.setup_s"] = sum(s[3] - s[2] for s in spans if s[1] == "bench.setup")
    out["trace.pass_s"] = sum(s[3] - s[2] for s in spans
                              if s[1] == "bench.pass") / traced_passes
    out["trace.spans"] = sum(weight(s) for s in spans
                             if not s[5].endswith("/setup"))
    return out
