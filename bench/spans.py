"""Spans around the public functions of the four satiab layers.

The tracer replaces a function at the module attribute its callers look it
up through (``satiab.expcli.solve_orthogonal`` is the name the sweep runner
calls), records one span per call, and puts the original back on exit.
Nothing in ``src/`` knows about it. Spans stay in memory until the run ends.

A span is ``(name, start, end, parent, row)``: ``parent`` indexes the span
that was open when this one started (-1 for a root), and ``row`` is shared
by every span of one sweep or audit row. A new row starts whenever
``build_scenario`` is entered directly under a root span, because the sweep
runners and ``audit_rows`` build one scenario per row before solving it;
writing the CSV and the plot ends the last row, so those spans get row -1.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("linkbudget", "ratemodel", "allocator", "expcli")

# Batches of link_rates are classed by element count: one allocation
# (the scalar evaluate path), swarm-sized batches, and grid batches.
LARGE_BATCH = 10_000
# Bytes a link_rates batch touches, computed from array sizes: four float64
# inputs read and two float64 outputs written per element. This is not a
# measured bandwidth.
BYTES_PER_ELEM = 6 * 8


def _batch_class(args) -> tuple[str, int]:
    elems = np.broadcast(*args[1:5]).size
    if elems == 1:
        return "scalar", 1
    return ("large" if elems >= LARGE_BATCH else "small"), elems


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self, satiab_modules: dict):
        self.modules = satiab_modules
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._row = -1
        self._rows = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> tuple[int, float]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self._row))
        self._stack.append(index)
        return index, time.perf_counter()

    def _close(self, index: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, _, _, parent, row = self.spans[index]
        self.spans[index] = (name, start, end, parent, row)

    def root(self, name: str, fn, *args):
        """Run ``fn(*args)`` as a root span; returns its result."""
        self._row = -1
        index, start = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(index, start)

    def _wrap(self, module, attr: str, name: str, after=None, classify=False, row=None):
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            label = name
            if classify:
                batch, elems = _batch_class(args)
                label = f"{name}.{batch}"
                self.counts[f"{label}.elems"] += elems
            if row == "new" and len(self._stack) == 1:
                self._row = self._rows
                self._rows += 1
            elif row == "end":
                self._row = -1
            index, start = self._open(label)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index, start)
            self.counts[f"{label}.calls"] += 1
            if after is not None:
                after(label, args, result)
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, traced)

    def _count_iterations(self, label, args, result) -> None:
        key = "points" if label.endswith("grid_oracle") else "iterations"
        self.counts[f"{label}.{key}"] += result.iterations_used

    def _count_bytes(self, label, args, result) -> None:
        self.counts[f"{label}.bytes"] += os.path.getsize(args[1])

    def __enter__(self) -> "Tracer":
        expcli, allocator, ratemodel = (self.modules[n] for n in ("expcli", "allocator", "ratemodel"))
        solved = self._count_iterations
        # Call sites in the sweep and audit layer.
        self._wrap(expcli, "build_scenario", "expcli.build_scenario", row="new")
        self._wrap(expcli, "channel_gain", "linkbudget.channel_gain")
        self._wrap(expcli, "solve_orthogonal", "allocator.solve_orthogonal", after=solved)
        self._wrap(expcli, "pso_solve", "allocator.pso_solve", after=solved)
        self._wrap(expcli, "grid_oracle", "allocator.grid_oracle", after=solved)
        self._wrap(expcli, "evaluate", "ratemodel.evaluate")
        self._wrap(expcli, "validate", "ratemodel.validate")
        self._wrap(expcli, "write_csv", "expcli.write_csv", after=self._count_bytes, row="end")
        self._wrap(expcli, "emit_plot", "expcli.emit_plot", after=self._count_bytes, row="end")
        # Call sites inside the solvers and the rate model.
        self._wrap(allocator, "run_pso", "allocator.run_pso")
        self._wrap(allocator, "evaluate", "ratemodel.evaluate")
        self._wrap(allocator, "link_rates", "ratemodel.link_rates", classify=True)
        self._wrap(ratemodel, "link_rates", "ratemodel.link_rates", classify=True)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- analysis --------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Inclusive time per span name, self time per layer, and counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            inclusive[name] += end - start
            layer_self[name.split(".", 1)[0]] += end - start - child_time[index]
        out = {f"{name}.time_s": value for name, value in inclusive.items()}
        out.update({f"{layer}.self_time_s": value for layer, value in layer_self.items()})
        out.update(self.counts)
        return out

    def root_time(self, name: str) -> float:
        return sum(end - start for n, start, end, parent, _ in self.spans if n == name and parent < 0)

    def time_under(self, root: str, name: str) -> float:
        """Inclusive time of spans called ``name`` inside roots called ``root``."""
        roots = {i for i, span in enumerate(self.spans) if span[0] == root and span[3] < 0}
        total = 0.0
        for n, start, end, parent, _ in self.spans:
            if n != name:
                continue
            while parent >= 0 and parent not in roots:
                parent = self.spans[parent][3]
            if parent in roots:
                total += end - start
        return total

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, row) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                     "parent": parent, "row": row}))
                fh.write("\n")
