"""One workload in one fresh interpreter: set-up, then the timed loop.

Started by ``perfbench/run.py`` as ``python -m perfbench.worker`` from the
repository root with ``src`` on ``PYTHONPATH``. It prints one JSON object on
its last stdout line with the raw measurements; ``run.py`` turns them into
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import numpy as np


def _now() -> float:
    # CLOCK_MONOTONIC is system-wide, so the launcher's timestamp and this
    # process's timestamps share one time base.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


_REF_RNG = np.random.default_rng(20240420)
_REF_X = np.column_stack([np.ones(400), _REF_RNG.uniform(0.5, 6.0, (400, 3))])
_REF_Y = _REF_X @ np.array([0.2, 0.15, -0.05, 0.1]) + _REF_RNG.normal(0.0, 0.05, 400)


def reference(size: int = 1) -> float:
    """Fixed work that shares no code with telefitts, about 3 ms per ``size``
    on a 2 GHz Xeon: a grouping loop over Python objects with string
    formatting, then small-array numpy reductions and least-squares solves,
    the two kinds of work the workloads do. Its wall time tracks how fast the
    host runs Python and numpy at that moment."""
    groups: dict[tuple[int, int], list[float]] = {}
    for i in range(3000 * size):
        groups.setdefault((i % 8, i % 5), []).append(i * 0.001)
    lines = [f"{k[0]},{k[1]},{sum(v) / len(v):.6f}" for k, v in groups.items()]
    total = sum(float(line.rsplit(",", 1)[1]) for line in lines)
    for j in range(15 * size):
        x = _REF_X[j:j + 280]
        q, r = np.linalg.qr(x)
        coef = np.linalg.solve(r, q.T @ _REF_Y[j:j + 280])
        total += float(coef[1]) + float(np.std(x[:, 1] - x[:, 2]))
    return total


def _reference_s(size: int) -> float:
    start = time.perf_counter()
    reference(size)
    return time.perf_counter() - start


def measure(workload, seconds: float, tracer=None) -> dict:
    """Closed loop: unit i starts when unit i-1 has finished and been checked,
    until ``seconds`` of wall time have passed. Checks are not timed.

    The reference loop, of the workload's ``reference_size``, is timed before
    the first unit and after every unit. A unit's reference time is the
    longer of the two taken around it: when the host slows down or speeds up
    during a unit, that unit ran partly at the slower speed, and dividing by
    the faster one would charge the host's change to the unit."""
    times: list[float] = []
    refs: list[float] = []
    failed: dict[int, str] = {}
    deadline = time.perf_counter() + seconds
    ref_before = _reference_s(workload.reference_size)
    i = 0
    while True:
        if tracer is not None:
            tracer.unit = i
        start = time.perf_counter()
        try:
            out = workload.run(i)
        except Exception as exc:  # a failed unit is counted, not fatal
            end = time.perf_counter()
            failed[i] = f"raised {type(exc).__name__}: {exc}"
        else:
            end = time.perf_counter()
            try:
                problems = workload.check(i, out)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                failed[i] = "; ".join(problems)
            del out  # keep one unit's objects alive at a time
        ref_after = _reference_s(workload.reference_size)
        times.append(end - start)
        refs.append(max(ref_before, ref_after))
        ref_before = ref_after
        i += 1
        if end >= deadline:
            break
    failed.update(workload.final_check())
    return {
        "times": times,
        "refs": refs,
        "rows": len(times) * workload.rows_per_unit,
        "failed": {str(k): v for k, v in sorted(failed.items())},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, required=True,
                        help="CLOCK_MONOTONIC time at which the launcher started this process")
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import telefitts
    import telefitts.sim  # noqa: F401  (every workload needs the simulator)

    imported = _now()
    src = os.path.abspath("src")
    if not os.path.abspath(telefitts.__file__).startswith(src + os.sep):
        print(f"telefitts was imported from {telefitts.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.outdir)
    ready = _now()
    result: dict = {"setup": {
        "import_s": imported - args.launched,
        "prepare_s": ready - imported,
        "setup_s": ready - args.launched,
    }}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    import scipy

    from perfbench.tracing import Tracer

    # Warm-up, not timed: lazy imports and first-call caches.
    workload.run(0)
    reference(workload.reference_size)
    if args.trace:
        result["plain"] = measure(workload, args.seconds / 2)
        with Tracer() as tracer:
            result["traced"] = measure(workload, args.seconds / 2, tracer)
        traced_units = list(range(len(result["traced"]["times"])))
        result["layers"] = tracer.layer_metrics(traced_units)
        tracer.write(os.path.join(args.outdir, f"spans-{args.workload}.jsonl"))
    else:
        result["plain"] = measure(workload, args.seconds)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["digests"] = {str(k): v for k, v in getattr(workload, "digests", {}).items()}
    result["environment"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
