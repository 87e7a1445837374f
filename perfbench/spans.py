"""Per-layer spans around dfgof's public functions, recorded from outside
the package.

``install`` replaces each function in ``LAYER_FUNCTIONS``, in every dfgof
module that holds it (the module that defines it and every module that
imported it by name, such as ``dfgof.harness.solve_assignment``), with a
wrapper that records one span per call: its id, its parent span, the
operation it belongs to, the function, start and end times, and a work
count for the functions in ``WORK_COUNTS``.  Spans are recorded only while
an operation is active, so the benchmark's own checks leave none.

Worker processes forked by dfgof's process pool inherit the wrappers and
the open span stack, so their spans name the parent process's
``run_experiment`` span as parent.  Each worker writes its spans to a spool
file when it exits; the parent reads them once the operation has returned.
The clock is ``time.perf_counter``, which is system-wide on Linux, so spans
of different processes can be compared.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict
from multiprocessing import util as mp_util
from pathlib import Path

LAYER_FUNCTIONS = (
    "harness.run_experiment",
    "harness.pipeline_records",
    "harness.pipeline_processes",
    "model.fit",
    "model.score_basis",
    "basis.sample_on_points",
    "transport.generate_anchors",
    "transport.rescale_unit_cube",
    "transport.solve_assignment",
    "transform.transform_residuals",
    "rotations.build_plan",
    "rotations.apply_plan",
    "process.build_process",
    "process.ks_statistics",
    "fileio.load_sample",
    "fileio.write_ecdf",
    "fileio.write_table",
    "fileio.write_process_dump",
    "cli.run",
)


def _dominance_entries(scan) -> int:
    # build_process compares every pair of scan points only for p >= 2
    shape = getattr(scan, "shape", ())
    return shape[0] ** 2 if len(shape) == 2 and shape[1] >= 2 else 0


# function -> (metric suffix, argument name, work count from that argument)
WORK_COUNTS = {
    "transport.solve_assignment": ("cost_entries", "x", lambda x: len(x) ** 2),
    "process.build_process": ("dominance_entries", "scan_points", _dominance_entries),
}


class Tracer:
    """Span store of one process; a forked worker starts its own."""

    def __init__(self, spool: Path):
        self.spool = spool
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.counter = 0
        self.op: int | None = None

    def _new_id(self) -> int:
        pid = os.getpid()
        if pid != self.pid:  # first span in a forked worker
            self.pid = pid
            self.spans = []
            mp_util.Finalize(self, self._spill, exitpriority=10)
        self.counter += 1
        return (pid << 32) | self.counter

    def _spill(self) -> None:
        (self.spool / f"spans-{self.pid}.json").write_text(json.dumps(self.spans))

    def wrap(self, name: str, fn):
        work = WORK_COUNTS.get(name)
        signature = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            amount = 0
            if work:
                amount = work[2](signature.bind(*args, **kwargs).arguments[work[1]])
            span_id = self._new_id()
            parent = self.stack[-1] if self.stack else 0
            self.stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans.append((span_id, parent, self.op, name, start, end, amount))

        return traced

    def collect(self) -> list[tuple]:
        """Spans recorded since the last call, workers' spool files included."""
        spans, self.spans = self.spans, []
        for path in sorted(self.spool.glob("spans-*.json")):
            spans.extend(tuple(s) for s in json.loads(path.read_text()))
            path.unlink()
        return spans


def install(tracer: Tracer) -> None:
    modules = [m for name, m in list(sys.modules.items()) if name == "dfgof" or name.startswith("dfgof.")]
    for qualname in LAYER_FUNCTIONS:
        module_name, func_name = qualname.split(".")
        original = getattr(sys.modules[f"dfgof.{module_name}"], func_name)
        wrapper = tracer.wrap(qualname, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` inside [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class LayerTotals:
    """Calls, self time and work per function, summed over operations.

    Self time is a span's duration minus the union of its child spans;
    children that ran in parallel worker processes are counted once."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.work: Counter = Counter()

    def add(self, spans: list[tuple]) -> None:
        children = defaultdict(list)
        for span_id, parent, op, _, start, end, _ in spans:
            children[(op, parent)].append((start, end))
        for span_id, _, op, name, start, end, amount in spans:
            self.calls[name] += 1
            self.self_s[name] += (end - start) - _covered(children.get((op, span_id), []), start, end)
            self.work[name] += amount

    def metrics(self, operations: int) -> dict[str, float]:
        out = {}
        for func in LAYER_FUNCTIONS:
            calls = self.calls[func]
            out[f"{func}.calls"] = calls / operations
            out[f"{func}.self_ms"] = 1000.0 * self.self_s[func] / calls if calls else 0.0
        for func, (suffix, _, _) in WORK_COUNTS.items():
            out[f"{func}.{suffix}"] = self.work[func] / operations
        return out
