"""Spans and counters recorded from outside the program.

The tracer replaces public telefitts functions at the module attributes
through which the layers call them (``telefitts.comparison.ols_fit`` is what
``compare_models`` looks up, for example) and restores them afterwards. The
source is never touched. Spans stay in memory as plain lists and are written
out once, when the run ends.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import defaultdict
from typing import Callable

import telefitts.comparison
import telefitts.sim
import telefitts.sim.hands
import telefitts.sim.techniques
import telefitts.throughput
import telefitts.trials

#: (owner, attribute, span name or None for count-only, counter or None).
#: A function is patched on every module whose attribute a caller looks up.
#: A span's self time is reported as the per-layer metric ``<span>_s``.
#: Counters take (result, positional args) and return {count name: amount}.
PATCHES = (
    (telefitts.trials, "write_trial_log", "trials.write",
     lambda r, a: {"trials.write_bytes": os.path.getsize(a[1])}),
    (telefitts.trials, "read_trial_log", "trials.read",
     lambda r, a: {"trials.read_rows": len(r)}),
    (telefitts.trials, "validate_log", "trials.validate", None),
    (telefitts.trials, "group_by_condition", "trials.group",
     lambda r, a: {"trials.group_calls": 1, "trials.cells": len(r)}),
    (telefitts.comparison, "group_by_condition", "trials.group",
     lambda r, a: {"trials.group_calls": 1, "trials.cells": len(r)}),
    (telefitts.comparison, "collapse_over", "trials.collapse",
     lambda r, a: {"trials.collapse_calls": 1}),
    (telefitts.comparison, "rows_for_model", "models.predictors", None),
    (telefitts.comparison, "ols_fit", "regression.ols",
     lambda r, a: {"regression.ols_calls": 1}),
    (telefitts.comparison, "compare_models", "comparison.compare", None),
    (telefitts.comparison, "run_table1_suite", "comparison.suite", None),
    (telefitts.comparison, "render_table", "comparison.render", None),
    (telefitts.comparison, "render_records", "comparison.render",
     lambda r, a: {"comparison.records_bytes": len(r.encode("utf-8"))}),
    (telefitts.comparison, "parse_records", "comparison.parse", None),
    (telefitts.throughput, "throughput_by_group", "throughput.group",
     lambda r, a: {"throughput.cells": sum(len(s.cells) for s in r),
                   "throughput.degenerate_cells": sum(s.degenerate_cells for s in r)}),
    (telefitts.throughput, "render_throughput_records", "throughput.render", None),
    (telefitts.sim, "generate_study", "sim.study.generate",
     lambda r, a: {"sim.study.trials_generated": len(r)}),
    (telefitts.sim, "synth_hand_trace", "sim.hands.trace",
     lambda r, a: {"sim.hands.samples": len(r)}),
    (telefitts.sim.hands.StationaryHand, "trace", "sim.hands.trace",
     lambda r, a: {"sim.hands.samples": len(r)}),
    (telefitts.sim.techniques, "kalman_smooth", "sim.filters.kalman", None),
    (telefitts.sim.techniques, "spike_compensate", "sim.filters.spike", None),
    (telefitts.sim.techniques, "parabola_landing", "sim.kinematics.parabola",
     lambda r, a: {"sim.kinematics.parabola_calls": 1}),
    (telefitts.sim.techniques, "sphere_hit_test", None,
     lambda r, a: {"hit_test.hits": int(r[0])}),
    (telefitts.sim, "run_trial", "sim.techniques.run_trial", None),
)


class Tracer:
    """Records spans ``[name, start, end, parent index, unit]`` and per-unit counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.unit = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, span: str | None, counter: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            if span is None:
                result = fn(*args, **kwargs)
            else:
                index = len(self.spans)
                record = [span, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.unit]
                self.spans.append(record)
                self._stack.append(index)
                record[1] = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = time.perf_counter()
                    self._stack.pop()
            if counter is not None:
                unit_counts = self.counts[self.unit]
                for name, amount in counter(result, args).items():
                    unit_counts[name] += amount
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for owner, attr, span, counter in PATCHES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span, counter))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per unit, the self time of each span name: duration minus the
        durations of its direct child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, unit in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (name, start, end, parent, unit), children in zip(self.spans, child_time):
            out[unit][name] += (end - start) - children
        return out

    def layer_metrics(self, units: list[int]) -> dict[str, float]:
        """Median over ``units`` of each span's self time (as ``<span>_s``)
        and of each count; layers no unit reached are absent."""
        selfs = self.self_times()
        spans = {name for u in units for name in selfs[u]}
        metrics = {f"{name}_s": statistics.median(selfs[u].get(name, 0.0) for u in units)
                   for name in spans}
        counts = {name for u in units for name in self.counts[u]} - {"hit_test.hits"}
        metrics.update({name: statistics.median(self.counts[u].get(name, 0) for u in units)
                        for name in counts})
        confirmations = sum(self.counts[u].get("sim.kinematics.parabola_calls", 0) for u in units)
        if confirmations:
            hits = sum(self.counts[u].get("hit_test.hits", 0) for u in units)
            metrics["sim.techniques.hit_ratio"] = hits / confirmations
        return metrics

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, unit in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "unit": unit}
                ) + "\n")
