"""In-memory spans around filicoh's public functions, installed from outside.

A traced run replaces the functions in TARGETS with wrappers that record
one span per call: its id, the span that caused it, its thread, its wall
start and end, its thread CPU time, p where the arguments carry it, and
for ``gf.rref`` the rows x cols of the matrix passed.  The functions in
COUNTED only have their calls counted.  Nothing under ``src/`` changes.

Hot leaves (``gf.normalize``, ``LieAlgebra.bracket``,
``LieAlgebra.bracket_basis``, ``Cochain.evaluate``) get no span: they run
millions of times, so wrapping them would swamp the run.  Their cost lands
in their caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time

# (span name, module under filicoh, attribute or Class.method)
TARGETS = (
    ("cli.main", "cli", "main"),
    ("cli.dims_row", "cli", "dims_row"),
    ("cohomology.h1", "cohomology", "h1"),
    ("cohomology.h1_star", "cohomology", "h1_star"),
    ("cohomology.h2", "cohomology", "h2"),
    ("cohomology.h2_star", "cohomology", "h2_star"),
    ("cochains.d1_matrix", "cochains", "d1_matrix"),
    ("cochains.d2_matrix", "cochains", "d2_matrix"),
    ("cochains.d1", "cochains", "d1"),
    ("cochains.d2", "cochains", "d2"),
    ("restricted_cochains.ind2_matrix", "restricted_cochains", "ind2_matrix"),
    ("restricted_cochains.star_eval", "restricted_cochains", "star_eval"),
    ("restricted_cochains.correction", "restricted_cochains", "star_correction"),
    ("restricted_cochains.correction", "restricted_cochains", "doublestar_correction"),
    ("restricted.p_power_closed", "restricted", "p_power_closed"),
    ("restricted.p_power_jacobson", "restricted", "p_power_jacobson"),
    ("restricted.jacobson_corrections", "restricted", "jacobson_corrections"),
    ("gf.rref", "gf", "rref"),
    ("gf.kernel_basis", "gf", "kernel_basis"),
    ("gf.rank", "gf", "rank"),
    ("gf.SpanTracker", "gf", "SpanTracker.add"),
    ("gf.SpanTracker", "gf", "SpanTracker.contains"),
    ("isoclass.partition_classes", "isoclass", "partition_classes"),
    ("isoclass.iso_bruteforce", "isoclass", "iso_bruteforce"),
    ("extensions.extend_restricted", "extensions", "extend_restricted"),
    ("extensions.is_trivial_ordinary_extension", "extensions", "is_trivial_ordinary_extension"),
    ("liealg.make_m0", "liealg", "make_m0"),
    ("liealg.jacobi_check", "liealg", "jacobi_check"),
    ("liealg.ad_matrix", "liealg", "ad_matrix"),
)
COUNTED = (("isoclass.diag_iso_check", "isoclass", "diag_iso_check"),)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))
COUNT_NAMES = tuple(name for name, _, _ in COUNTED)

# every per-layer metric with its unit
METRICS = {
    **{f"{n}.{kind}": "count" if kind == "calls" else "s"
       for n in SPAN_NAMES for kind in ("calls", "self_s", "wait_s")},
    "gf.rref.cells": "count",
    **{f"{n}.calls": "count" for n in COUNT_NAMES},
}

# fields of one recorded span, in order
FIELDS = ("id", "parent", "name", "thread", "start", "end", "cpu", "p", "cells")


def _p_getter(fn):
    """How to read p from a call's arguments: a parameter named p, else
    the first argument's ``prime`` (algebras) or ``p`` (SpanTracker)."""
    names = list(inspect.signature(fn).parameters)
    if "p" in names:
        i = names.index("p")
        return lambda args, kwargs: kwargs["p"] if "p" in kwargs else (
            args[i] if len(args) > i else None
        )

    def first_arg(args, kwargs):
        if not args:
            return None
        value = getattr(args[0], "prime", None)
        return value if value is not None else getattr(args[0], "p", None)

    return first_arg


def _cells(args, kwargs):
    m = args[0] if args else kwargs.get("m")
    shape = getattr(m, "shape", None)
    if shape is not None:
        return int(shape[0]) * int(shape[1]) if len(shape) == 2 else 0
    return len(m) * len(m[0]) if len(m) else 0


class Tracer:
    """Collects spans and call counts in memory for one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self._count_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Id of the innermost open span on this thread, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    def adopt(self, parent, fn, *args, **kwargs):
        """Run fn on this thread as if called inside span ``parent``."""
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def wrap(self, name, fn):
        get_p = _p_getter(fn)
        cells = _cells if name == "gf.rref" else None
        record = self.spans.append

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            # the CPU readings nest inside the wall readings
            t0 = time.perf_counter()
            c0 = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                c1 = time.thread_time()
                t1 = time.perf_counter()
                stack.pop()
                record((
                    sid, parent, name, threading.get_ident(), t0, t1, c1 - c0,
                    get_p(args, kwargs), cells(args, kwargs) if cells else None,
                ))

        return wrapper

    def count(self, name, fn):
        lock = self._count_lock
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with lock:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def pool_class(self, base):
        """A subclass of executor ``base`` whose tasks inherit the
        submitting thread's open span as their parent."""
        tracer = self

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.adopt, tracer.current(), fn, *args, **kwargs)

        return TracedPool


def install(tracer: Tracer) -> None:
    """Wrap TARGETS and COUNTED in the imported filicoh package."""
    for kind, table in (("span", TARGETS), ("count", COUNTED)):
        for name, modname, attr in table:
            module = importlib.import_module(f"filicoh.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, tracer.wrap(name, getattr(cls, meth)))
                continue
            # filicoh modules call each other through module attributes
            # (``from . import gf``; ``gf.rref(...)``), so rebinding the
            # attribute reaches every caller
            original = getattr(module, attr)
            wrap = tracer.wrap if kind == "span" else tracer.count
            setattr(module, attr, wrap(name, original))
    cli = importlib.import_module("filicoh.cli")
    cli.ThreadPoolExecutor = tracer.pool_class(cli.ThreadPoolExecutor)


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> list[dict]:
    """Per span: name, p, wall duration, self_s and wait_s.

    self_s is the span's wall duration minus the part of it that its child
    spans cover, on any thread.  wait_s is self_s minus the span's own CPU
    time, which is its thread CPU time less that of its children on the
    same thread: the time it spent runnable but not running, or blocked.
    """
    rows = [dict(zip(FIELDS, s)) for s in spans]
    children: dict[int, list[dict]] = {}
    for s in rows:
        children.setdefault(s["parent"], []).append(s)
    out = []
    for s in rows:
        kids = children.get(s["id"], ())
        wall = s["end"] - s["start"]
        self_wall = wall - _covered([(k["start"], k["end"]) for k in kids], s["start"], s["end"])
        self_cpu = s["cpu"] - sum(k["cpu"] for k in kids if k["thread"] == s["thread"])
        out.append({
            "name": s["name"],
            "p": s["p"],
            "cells": s["cells"],
            "wall_s": wall,
            "cpu_s": s["cpu"],
            "self_s": self_wall,
            "wait_s": self_wall - self_cpu,
        })
    return out


def layer_metrics(spans, counts) -> dict[str, float]:
    """``<name>.calls``, ``.self_s`` and ``.wait_s`` for every span name,
    ``gf.rref.cells``, and a ``.calls`` count for each COUNTED name."""
    out: dict[str, float] = {k: 0 for k in METRICS}
    for s in self_times(spans):
        name = s["name"]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += s["self_s"]
        out[f"{name}.wait_s"] += s["wait_s"]
        if s["cells"] is not None:
            out["gf.rref.cells"] += s["cells"]
    for name in COUNT_NAMES:
        out[f"{name}.calls"] = counts.get(name, 0)
    return out


def per_prime(spans, names) -> dict[str, dict[str, dict[str, float]]]:
    """For each span name in ``names`` and each p: calls, and the wall
    time, thread CPU time and self time of its spans (wall and CPU
    include their children)."""
    out: dict[str, dict[str, dict[str, float]]] = {}
    for s in self_times(spans):
        if s["name"] not in names:
            continue
        cell = out.setdefault(s["name"], {}).setdefault(
            str(s["p"]), {"calls": 0, "wall_s": 0.0, "cpu_s": 0.0, "self_s": 0.0}
        )
        cell["calls"] += 1
        cell["wall_s"] += s["wall_s"]
        cell["cpu_s"] += s["cpu_s"]
        cell["self_s"] += s["self_s"]
    return out
