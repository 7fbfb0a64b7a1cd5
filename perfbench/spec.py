"""What the benchmark measures: workloads, metrics and their bounds.

This module is the single source of ``BENCHMARK.json`` at the repository
root: ``python3 perfbench/spec.py`` regenerates it, and the smoke test
checks that the two agree. It imports nothing from telefitts, so the
orchestrator can load it before it knows whether the package is there.
"""

from __future__ import annotations

#: Long enough for the slowest unit (~0.7 s) to give a tail percentile with
#: ten samples beyond it; short enough that 4 + 22 x 4 runs fit in an hour.
RUN_SECONDS = 20

#: Every unit of work runs to completion before the next starts; one client,
#: one process, no threads.
LOOP = "closed loop, 1 client, 1 process, no threads; unit i uses seed + i"

#: (name, input size per unit, reason it is a workload)
WORKLOADS = (
    (
        "study-pipeline",
        "one realistic 20-participant study, 8000 trial rows",
        "ROADMAP's end-to-end unit; per-row Trial objects, CSV I/O and the three "
        "separate groupings dominate it, so a columnar table should show here first",
    ),
    (
        "selection-sweep",
        "one model-exact 20-participant study, 8000 trial rows; "
        "Proposed and Standard truth alternate",
        "the criterion-2 Monte-Carlo loop: generation and grouping dominate and it "
        "does no file I/O or throughput, so an I/O change should not move it",
    ),
    (
        "participant-fits",
        "one participant's 400 trial rows; 32 comparisons, 128 OLS fits",
        "the only workload where regression and comparison carry a large share, "
        "and aggregation runs on many small tables that an 8000-row tuning can slow",
    ),
    (
        "kinematic-trials",
        "one scripted trial: two 101-sample hand traces at 100 Hz, Kalman-smoothed",
        "the only workload that reaches sim.hands, sim.filters, sim.techniques and "
        "sim.kinematics, the target of the array-based kinematic rewrite",
    ),
)

WORKLOAD_NAMES = tuple(name for name, _size, _why in WORKLOADS)

#: (name, unit, better, bound). ``setup_s`` is wall time from launching a
#: fresh interpreter to being ready for the first unit. The ``ref`` metrics
#: are unit wall times divided by the wall time of a fixed reference loop
#: timed around them: on a shared 2-vCPU VM, host speed changed by up to 2x
#: between phases lasting under a second to minutes. Over ten 20 s runs that
#: moved the median unit wall time by 26-38% (quartile spread over median),
#: but the ``ref`` metrics by 1.4-10%. Peak memory hardly varies.
END_TO_END = (
    ("unit_ref.p50", "ref", "lower", 0.25),
    ("unit_ref.tail", "ref", "lower", 0.25),
    ("rows_per_ref", "rows/ref", "higher", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

#: (name, unit, better). The first four are plain wall times of the untraced
#: half. Layer times are self times (span duration minus wrapped child
#: spans) summed per unit; counts are per unit; both are medians over the
#: traced units. A layer a workload does not reach reports 0.
PER_LAYER = (
    ("unit_s.p50", "s", "lower"),
    ("unit_s.tail", "s", "lower"),
    ("rows_per_s", "rows/s", "higher"),
    ("reference_s", "s", "lower"),
    ("setup.import_s", "s", "lower"),
    ("setup.prepare_s", "s", "lower"),
    ("trials.write_s", "s", "lower"),
    ("trials.write_bytes", "bytes", "lower"),
    ("trials.read_s", "s", "lower"),
    ("trials.read_rows", "count", "higher"),
    ("trials.validate_s", "s", "lower"),
    ("trials.group_s", "s", "lower"),
    ("trials.group_calls", "count", "lower"),
    ("trials.cells", "count", "lower"),
    ("trials.collapse_s", "s", "lower"),
    ("trials.collapse_calls", "count", "lower"),
    ("sim.study.generate_s", "s", "lower"),
    ("sim.study.trials_generated", "count", "higher"),
    ("models.predictors_s", "s", "lower"),
    ("regression.ols_s", "s", "lower"),
    ("regression.ols_calls", "count", "lower"),
    ("comparison.compare_s", "s", "lower"),
    ("comparison.suite_s", "s", "lower"),
    ("comparison.render_s", "s", "lower"),
    ("comparison.parse_s", "s", "lower"),
    ("comparison.records_bytes", "bytes", "lower"),
    ("throughput.group_s", "s", "lower"),
    ("throughput.cells", "count", "higher"),
    ("throughput.degenerate_cells", "count", "lower"),
    ("throughput.render_s", "s", "lower"),
    ("sim.hands.trace_s", "s", "lower"),
    ("sim.hands.samples", "count", "higher"),
    ("sim.filters.kalman_s", "s", "lower"),
    ("sim.filters.spike_s", "s", "lower"),
    ("sim.kinematics.parabola_s", "s", "lower"),
    ("sim.kinematics.parabola_calls", "count", "lower"),
    ("sim.techniques.run_trial_s", "s", "lower"),
    ("sim.techniques.hit_ratio", "ratio", "higher"),
    ("trace.unit_s.p50", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("failed_ratio", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, *_rest in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, _size, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


if __name__ == "__main__":
    import json
    from pathlib import Path

    target = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    target.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    print(f"wrote {target}")
