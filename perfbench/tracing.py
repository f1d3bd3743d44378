"""In-memory span recorder that wraps gridemd's public functions from outside.

Each layer boundary is a name bound in a calling module (``gridemd.cli``
binds ``parse_grid``, ``gridemd.qmwd`` binds ``rotate90``, ...). ``Tracer``
rebinds those names to timing wrappers for the duration of a ``with
tracer.installed():`` block and restores the originals afterwards, so no
file of the library changes and an untraced run executes no tracing code.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import Counter
from typing import Any, Callable, Iterator

# Span name -> every (module, attribute) through which a caller reaches it.
# ``gridemd.<module>.<name>`` itself is listed where the benchmark is the caller.
CALL_SITES: dict[str, tuple[tuple[str, str], ...]] = {
    "cli.main": (("gridemd.cli", "main"),),
    "grid.parse_grid": (("gridemd.cli", "parse_grid"),),
    "grid.rotate90": (("gridemd.qmwd", "rotate90"),),
    "grid.transpose": (("gridemd.qmwd", "transpose"),),
    "grid.total_mass": (
        ("gridemd.qmwd", "total_mass"),
        ("gridemd.mwd", "total_mass"),
        ("gridemd.bench", "total_mass"),
    ),
    "wd1d.wd_1d": (
        ("gridemd.wd1d", "wd_1d"),
        ("gridemd.qmwd", "wd_1d"),
        ("gridemd.cli", "wd_1d"),
        ("gridemd.bench", "wd_1d"),
    ),
    "qmwd.qmwd": (("gridemd.qmwd", "qmwd"), ("gridemd.cli", "qmwd"), ("gridemd.bench", "qmwd")),
    "mwd.mwd_exact": (
        ("gridemd.mwd", "mwd_exact"),
        ("gridemd.cli", "mwd_exact"),
        ("gridemd.bench", "mwd_exact"),
    ),
    "bench.run_sweep": (("gridemd.cli", "run_sweep"),),
    "bench.aggregate": (("gridemd.cli", "aggregate"),),
    "bench.emit_records_csv": (("gridemd.cli", "emit_records_csv"),),
    "bench.read_records_csv": (("gridemd.cli", "read_records_csv"),),
    "charts.emit_svg": (("gridemd.cli", "emit_svg"),),
}
# Grid construction is timed through the dataclass's validation hook, which
# every GridHistogram runs whichever module builds it.
POST_INIT_SPAN = "grid.GridHistogram"
SPAN_NAMES = (
    "cli.main",
    "grid.parse_grid",
    POST_INIT_SPAN,
    "grid.rotate90",
    "grid.transpose",
    "grid.total_mass",
    "wd1d.wd_1d",
    "qmwd.qmwd",
    "mwd.mwd_exact",
    "bench.run_sweep",
    "bench.aggregate",
    "bench.emit_records_csv",
    "bench.read_records_csv",
    "charts.emit_svg",
)
COUNT_NAMES = (
    "grid.cells_validated",
    "wd1d.cells",
    "mwd.active_cells",
    "mwd.plan_moves",
    "mwd.moved_mass",
)


class Tracer:
    """Spans as (name, start_ns, end_ns, parent index, op id), kept in memory.

    ``op_id`` is set by the caller before each operation; spans recorded
    outside any operation carry -1.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.counts: Counter[str] = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._mwd_calls: list[tuple[Any, Any, Any]] = []

    def _wrap(self, name: str, fn: Callable[..., Any], after=None) -> Callable[..., Any]:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
            if after is not None:
                after(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        grid_cls = importlib.import_module("gridemd.grid").GridHistogram
        post_init = grid_cls.__dict__["__post_init__"]
        after = {
            "wd1d.wd_1d": lambda args, result: self.counts.update({"wd1d.cells": len(args[0])}),
            # Kept and counted after the traced phase, so counting costs no span time.
            "mwd.mwd_exact": lambda args, result: self._mwd_calls.append((args[0], args[1], result)),
        }
        undo = []
        try:
            for span, sites in CALL_SITES.items():
                for mod_name, attr in sites:
                    mod = importlib.import_module(mod_name)
                    undo.append((mod, attr, getattr(mod, attr)))
                    setattr(mod, attr, self._wrap(span, getattr(mod, attr), after.get(span)))
            grid_cls.__post_init__ = self._wrap(
                POST_INIT_SPAN,
                post_init,
                lambda args, result: self.counts.update({"grid.cells_validated": len(args[0].cells)}),
            )
            yield self
        finally:
            grid_cls.__post_init__ = post_init
            for mod, attr, original in reversed(undo):
                setattr(mod, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Per span name: calls, busy time (union of its spans) and self time
        (span time minus time covered by its direct child spans); plus the
        work counters."""
        spans = self.spans  # every span has ended once the traced calls returned
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter[str] = Counter()
        busy: Counter[str] = Counter()
        self_ns: Counter[str] = Counter()
        for idx, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[idx]
            anc = parent
            while anc >= 0 and spans[anc][0] != name:
                anc = spans[anc][3]
            if anc < 0:  # not nested in a span of the same name
                busy[name] += end - start
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_ms"] = busy[name] / 1e6
            out[f"{name}.self_ms"] = self_ns[name] / 1e6
        counts = Counter(self.counts)
        for p, q, res in self._mwd_calls:
            counts["mwd.active_cells"] += sum(a != b for a, b in zip(p.cells, q.cells))
            counts["mwd.plan_moves"] += len(res.plan)
            counts["mwd.moved_mass"] += sum(mv.amount for mv in res.plan if mv.src != mv.dst)
        for name in COUNT_NAMES:
            out[name] = counts[name]
        return out

    def write_spans(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": idx, "name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )
