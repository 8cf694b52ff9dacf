"""Timing spans around bellres's public functions, installed from outside.

The tracer rebinds each public function of the traced modules in every
``bellres`` module namespace that holds it (``twoqubit.eig_hermitian`` and
``cli.eig_hermitian`` both point at one wrapper), wraps
``ConeConstraint.evaluate`` at class level as a call counter, and puts every
original back on ``remove``.  The library source is never modified, and an
untraced run never installs a wrapper.

A span is ``(name, start_ns, end_ns, parent_id, item, gap_tol, error, self_ns)``;
span ids are indices into ``Tracer.spans``.  Self time is the span's duration
minus the durations of the wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

# module -> public functions to wrap; None means every public function the
# module defines.  The CLI is traced at its entry point only, so that
# cli.main's self time is argument parsing, glue and CSV/JSON formatting.
TRACED = {
    "bellres.bounds": None,
    "bellres.twoqubit": None,
    "bellres.barrier": None,
    "bellres.oracles": None,
    "bellres.linalg": None,
    "bellres.cli": ("main",),
}


def public_functions(module, only=None) -> dict:
    """Public functions defined in ``module`` (not re-exported ones)."""
    out = {}
    for attr, obj in vars(module).items():
        if attr.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ != module.__name__:
            continue
        if only is not None and attr not in only:
            continue
        out[attr] = obj
    return out


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.item = None  # id ("<pass>.<item>") of the workload item now running
        self.active = False
        self._stack: list[list] = []  # [span_id, child_ns] per open span
        self._patches: list = []  # (owner, attr, original)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for modname, only in TRACED.items():
            module = sys.modules[modname]
            short = modname.split(".", 1)[1]
            for attr, fn in public_functions(module, only).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "bellres" and not modname.startswith("bellres."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        cone = sys.modules["bellres.barrier"].ConeConstraint
        original = cone.__dict__["evaluate"]
        counts = self.counts

        @functools.wraps(original)
        def evaluate(cone_self, x):
            counts["barrier.cone_evals"] += 1
            return original(cone_self, x)

        self._patches.append((cone, "evaluate", original))
        cone.evaluate = evaluate
        self.active = True

    def remove(self) -> None:
        self.active = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def _wrap(self, name: str, fn):
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_id = len(spans)
            parent = stack[-1][0] if stack else None
            spans.append(None)
            frame = [span_id, 0]
            stack.append(frame)
            error = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[span_id] = (
                    name, start, end, parent, tracer.item,
                    kwargs.get("gap_tol"), error, end - start - frame[1],
                )

        return wrapper

    # -- results --------------------------------------------------------------

    def table(self, by_gap: bool = False) -> dict[str, dict]:
        """Per-function calls, errors, self time and inclusive latency percentiles.

        With ``by_gap`` the key is ``name@gap=<gap_tol>`` for calls that passed
        ``gap_tol``, so solver programs can be compared at each tolerance.
        """
        groups = defaultdict(list)
        for span in self.spans:
            key = span[0]
            if by_gap:
                if span[5] is None:
                    continue
                key = f"{key}@gap={span[5]:g}"
            groups[key].append(span)
        out = {}
        for key, spans in sorted(groups.items()):
            dur = np.array([s[2] - s[1] for s in spans], dtype=float) / 1e6
            out[key] = {
                "calls": len(spans),
                "errors": sum(1 for s in spans if s[6] is not None),
                "busy_s": sum(s[7] for s in spans) / 1e9,
                "total_s": float(dur.sum()) / 1e3,
                "p50_ms": float(np.percentile(dur, 50)),
                "p95_ms": float(np.percentile(dur, 95)),
            }
        return out

    def children(self, parent: str, names) -> tuple[int, int]:
        """(calls, calls that raised) of ``names`` made directly inside ``parent`` spans."""
        names = set(names)
        calls = errors = 0
        for span in self.spans:
            if span[0] in names and span[3] is not None and self.spans[span[3]][0] == parent:
                calls += 1
                errors += span[6] is not None
        return calls, errors

    def write_spans(self, path) -> None:
        """One JSON line per span, gzip-compressed; times in ns from the first span."""
        t0 = min((s[1] for s in self.spans), default=0)
        with gzip.open(path, "wt") as fh:
            for span_id, (name, start, end, parent, item, gap, error, self_ns) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start_ns": start - t0, "end_ns": end - t0,
                    "self_ns": self_ns, "parent": parent, "item": item,
                    "gap_tol": gap, "error": error,
                }) + "\n")
