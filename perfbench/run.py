#!/usr/bin/env python3
"""Benchmark of the telefitts pipeline: one workload, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It launches fresh interpreters with the
checkout's ``src`` on ``PYTHONPATH``, one after another: one that sets up
(imports telefitts and prepares the workload's inputs) and then runs units
back to back for ``--seconds``, checking every output, and ``SETUP_RUNS - 1``
that only set up, half before it and half after.

On a shared VM the host's speed changes by up to 2x, sometimes within a
second. So after every unit the worker also times a fixed reference loop
that shares no code with telefitts (``perfbench/worker.py``). The end-to-end
unit metrics divide each unit's wall time by the longer of the reference
loop's wall times just before and just after it (unit ``ref``). The plain wall times are printed on every run, and
are per-layer metrics.

It prints each metric by name with its unit, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones of ``perfbench/spec.py``.
With ``--trace 1`` the loop runs untraced for half the time and traced for
the other half, and the metrics are the per-layer ones, including the
tracing overhead (traced minus untraced median unit time). A run record
goes to ``.perfbench_out/``, and the traced spans to
``.perfbench_out/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench import spec  # noqa: E402

#: Fresh interpreters whose set-up time is measured; setup_s is their median.
SETUP_RUNS = 5
#: Percentiles tried for ``unit_s.tail``, highest first.
TAIL_PERCENTILES = (99.9,) + tuple(float(p) for p in range(99, 49, -1))
#: A tail percentile needs at least this many samples above it.
TAIL_BEYOND = 10
#: Wall-time figures printed on every run; with ``--trace 1`` they are also
#: per-layer metrics.
WALL_TIME = ("unit_s.p50", "unit_s.tail", "rows_per_s", "reference_s")


def percentile(ordered: list[float], p: float) -> float:
    """Linear-interpolated percentile of sorted values."""
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(times: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile in
    ``TAIL_PERCENTILES`` with at least ``TAIL_BEYOND`` samples above it; the
    maximum (percentile 100, none beyond) when there are too few samples."""
    ordered = sorted(times)
    for p in TAIL_PERCENTILES:
        value = percentile(ordered, p)
        beyond = sum(1 for t in ordered if t > value)
        if beyond >= TAIL_BEYOND:
            return p, value, beyond
    return 100.0, ordered[-1], 0


def launch(args: argparse.Namespace, outdir: Path, setup_only: bool) -> dict:
    """Run the worker in a fresh interpreter and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    # One thread, and the same dict and set order on every run.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--outdir", str(outdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        cmd + ["--launched", repr(launched)], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, text=True, timeout=args.seconds + 120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(args: argparse.Namespace, setups: list[dict], result: dict) -> dict:
    """Metrics, verdict and human-readable lines from the raw measurements."""
    phases = [result["plain"]] + ([result["traced"]] if args.trace else [])
    attempted = sum(len(p["times"]) for p in phases)
    failed = sum(len(p["failed"]) for p in phases)
    plain = result["plain"]
    # A unit's cost is its wall time in multiples of the reference loop's
    # wall time around it; host speed changes cancel out of it.
    costs = [t / r for t, r in zip(plain["times"], plain["refs"])]
    tail_p, cost_tail, tail_beyond = tail(costs)
    plain_p50 = statistics.median(plain["times"])
    setup = {key: statistics.median(s[key] for s in setups)
             for key in ("setup_s", "import_s", "prepare_s")}
    values = {
        "unit_ref.p50": statistics.median(costs),
        "unit_ref.tail": cost_tail,
        "rows_per_ref": plain["rows"] / sum(costs),
        "peak_rss_mib": result["peak_rss_mib"],
        "setup_s": setup["setup_s"],
        "unit_s.p50": plain_p50,
        "unit_s.tail": tail(plain["times"])[1],
        "rows_per_s": plain["rows"] / sum(plain["times"]),
        "reference_s": statistics.median(plain["refs"]),
        "failed_ratio": failed / attempted,
    }

    traced_cost_p50 = values["unit_ref.p50"]
    if args.trace:
        traced = result["traced"]
        traced_p50 = statistics.median(traced["times"])
        traced_cost_p50 = statistics.median(t / r for t, r in zip(traced["times"], traced["refs"]))
        names = [name for name, _unit, _better in spec.PER_LAYER]
        values.update(dict.fromkeys(set(names) - set(values), 0))  # layers not reached
        values.update(result["layers"])
        values.update({
            "setup.import_s": setup["import_s"],
            "setup.prepare_s": setup["prepare_s"],
            "trace.unit_s.p50": traced_p50,
            "trace.overhead_s": traced_p50 - plain_p50,
        })
    else:
        names = [name for name, *_rest in spec.END_TO_END]
    metrics = {name: {"value": values[name], "unit": spec.UNITS[name]} for name in names}

    n_units = len(plain["times"])
    tail_note = (f"p{tail_p:g} of {n_units} units, {tail_beyond} beyond it" if tail_beyond else
                 f"maximum of {n_units} units: too few for a percentile "
                 f"with {TAIL_BEYOND} beyond it")
    notes = {
        "unit_ref.p50": f"median of {n_units} untraced units, wall time / reference loop",
        "unit_ref.tail": tail_note,
        "rows_per_ref": "trial rows per reference-loop time",
        "unit_s.p50": f"median wall time of {n_units} untraced units",
        "unit_s.tail": tail_note,
        "reference_s": "median wall time of the reference loop",
        "setup_s": (f"median of {len(setups)} fresh interpreters: import "
                    f"{setup['import_s']:.4f} s + prepare {setup['prepare_s']:.4f} s"),
        "trace.overhead_s": (f"traced minus untraced median unit time, "
                             f"{values.get('trace.overhead_s', 0.0) / plain_p50:+.1%}; "
                             f"{traced_cost_p50 / values['unit_ref.p50'] - 1.0:+.1%} "
                             f"in reference-loop units"),
    }
    shown = names + [name for name in WALL_TIME if name not in names]
    lines = [f"{name:<30} {values[name]:.6g} {spec.UNITS[name]}"
             + (f"  ({notes[name]})" if name in notes else "")
             for name in shown if name != "failed_ratio"]
    lines.append(f"{'failed_ratio':<30} {failed / attempted:.6g} ratio  "
                 f"({failed} of {attempted} units failed a check or raised)")
    for phase in phases:
        for unit, problem in list(phase["failed"].items())[:5]:
            lines.append(f"FAILED unit {unit}: {problem}")
    for seed, digest in list(result["digests"].items())[:1]:
        lines.append("digest seed=" + seed + " "
                     + " ".join(f"{k}={v}" for k, v in digest.items()))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "lines": lines,
        "tail": {"percentile": tail_p, "samples": len(plain["times"]), "beyond": tail_beyond},
        "setup": setup,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "telefitts" / "__init__.py").is_file():
        print(f"no telefitts sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    try:
        # Set-up-only interpreters run on both sides of the timed one, so
        # that their median samples the host over the whole run.
        before = (SETUP_RUNS - 1) // 2
        setups = [launch(args, outdir, setup_only=True)["setup"] for _ in range(before)]
        result = launch(args, outdir, setup_only=False)
        setups += [launch(args, outdir, setup_only=True)["setup"]
                   for _ in range(SETUP_RUNS - 1 - before)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 1
    setups.insert(before, result["setup"])
    summary = summarize(args, setups, result)

    size, why = {name: (size, why) for name, size, why in spec.WORKLOADS}[args.workload]
    print(f"workload {args.workload}, seed {args.seed}, {spec.LOOP}")
    print(f"unit: {size}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in result["environment"].items()))
    for line in summary.pop("lines"):
        print(line)
    record = {
        "workload": args.workload,
        "why": why,
        "input_per_unit": size,
        "loop": spec.LOOP,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": result["environment"],
        "setup_runs": setups,
        "digests": result["digests"],
        "unit_times_s": {phase: result[phase]["times"]
                         for phase in ("plain", "traced") if phase in result},
        "reference_times_s": {phase: result[phase]["refs"]
                              for phase in ("plain", "traced") if phase in result},
        "failed_units": {phase: result[phase]["failed"]
                         for phase in ("plain", "traced") if phase in result},
        **summary,
    }
    record_path = outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({key: summary[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
