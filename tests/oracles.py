"""Independent oracles used to cross-check the package implementations.

Everything here is deliberately written against a different method than the
code under test: pseudo-inverse and grid search instead of QR, adaptive
quadrature of the F density and scipy's (or mpmath's) incomplete beta
function instead of the continued fraction for the F tail, the rank of each
leading block of columns (an SVD) instead of the QR diagonal for
collinearity, scalar textbook Kalman recursion instead of the vectorized
filter, RK4 flight integration instead of the closed-form landing solution,
per-trial dictionary grouping with ``statistics`` instead of the
integer-coded column group-by, and the per-sample hand-trace loops (one
``HandSample`` per step, 2x2 matrix Kalman recursion, a technique state
machine stepped sample by sample) instead of the array kinematic layer, and
the csv-module trial-log reader, one row at a time, instead of numpy's
tokenizer, and the study generator that fills every column block by block
and draws angles with ``rng.choice`` instead of the loop that keeps only the
random draws. Endpoint SDs are held to the bound that ``endpoint_sds``
states against the exact SD, taken from integer sums, not the float kernel.

Two references share their method on purpose, so that the faster code can
be required to match them bit for bit: ``uncached_cell_fit`` repeats
``ols_fit`` step for step, with the predictors and the QR computed afresh
on every call, and ``f_tail_by_loop_fraction`` sums the continued fraction
of the F tail in its plain loop form, two steps per term taken in a loop
over their coefficients, with every log-gamma term computed afresh.
``fit_rows`` is no oracle: it is the tests' one way to fit plain rows with
the package's own ``Design``, ``response`` and ``ols_fit``.
"""

from __future__ import annotations

import csv
import math
import statistics
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.special import betainc, betaincc

from telefitts.models import (
    amplitude_from_grid,
    geometry_for_condition,
    left_sum,
    predict_mt,
    predictors_for,
)
from telefitts.regression import Design, fit_result, ols_fit, response
from telefitts.sim import (
    ConfigError,
    HandSample,
    TrialOutcome,
    balanced_latin_square,
    minimum_jerk_profile,
    parabola_landing,
    sphere_hit_test,
)
from telefitts.sim.filters import KALMAN_MEASUREMENT_NOISE, KALMAN_PROCESS_NOISE
from telefitts.sim.study import _MAX_REDRAWS
from telefitts.sim.techniques import DWELL_RADIUS_M, DWELL_THRESHOLD_S
from telefitts.throughput import (
    GRID_DISTANCES_M,
    GRID_HEIGHTS_M,
    GRID_WIDTHS_M,
    ThroughputCell,
    ThroughputSummary,
    effective_id,
)
from telefitts.trials import (
    POSTURES,
    TECHNIQUES,
    TRIAL_LOG_HEADER,
    ConditionKey,
    ConditionSummary,
    IncompleteGridError,
    LogFormatError,
    Posture,
    Technique,
    TrialTable,
)


def pinv_ols(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Least squares via the Moore-Penrose pseudo-inverse."""
    coef = np.linalg.pinv(x) @ y
    resid = y - x @ coef
    return coef, float(resid @ resid)


def fit_rows(predictors, responses):
    """``ols_fit`` of plain rows: the design of the predictor rows fitted to
    the response values, the design's errors raised first."""
    design = Design(predictors)
    return ols_fit(design, *response(responses))


def uncached_cell_rows(kind, summaries, amplitude_mode):
    """The predictor rows and responses that ``compare_models`` fits for one
    model, as lists in (W, D, H) order, each cell's geometry and predictors
    computed afresh."""
    predictors, responses = [], []
    for key in sorted(summaries, key=lambda k: (k.width_m, k.distance_m, k.height_m)):
        g = geometry_for_condition(key.width_m, key.distance_m, key.height_m, amplitude_mode)
        predictors.append(predictors_for(kind, g))
        responses.append(summaries[key].mean_mt_s)
    return predictors, responses


def uncached_cell_fit(kind, summaries, amplitude_mode):
    """``ols_fit`` of the same rows written as loops, computing every cell's
    geometry and predictors, the design's QR and the total sum of squares
    afresh."""
    predictors, responses = uncached_cell_rows(kind, summaries, amplitude_mode)
    x = np.empty((len(predictors), len(predictors[0]) + 1))
    x[:, 0] = 1.0
    for i, row in enumerate(predictors):
        x[i, 1:] = row
    y = np.array(responses)
    q, r = np.linalg.qr(x)
    coef = np.linalg.solve(r, q.T @ y)
    resid = y - x @ coef
    rss = float(resid @ resid)
    ybar = float(np.mean(y))
    tss = float(np.sum((y - ybar) ** 2))
    r2 = 1.0 if tss == 0.0 else max(0.0, 1.0 - rss / tss)
    return fit_result(coef, rss, r2, x.shape[0], x.shape[1] - 1)


def grid_search_ols(
    x: np.ndarray, y: np.ndarray, center: np.ndarray, span: float, steps: int
) -> np.ndarray:
    """Brute-force rss minimization over a coarse coefficient grid."""
    axes = [np.linspace(c - span, c + span, steps) for c in center]
    best = None
    best_rss = math.inf
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = np.stack([m.ravel() for m in mesh], axis=1)
    for coef in flat:
        r = y - x @ coef
        rss = float(r @ r)
        if rss < best_rss:
            best_rss = rss
            best = coef
    return np.asarray(best)


def collinear_columns_by_rank(x: np.ndarray) -> list[int]:
    """Slope columns (1-based within the slope block) that leave
    ``np.linalg.matrix_rank`` of the leading columns unchanged."""
    bad: list[int] = []
    rank = 1  # intercept column
    for j in range(1, x.shape[1]):
        new_rank = int(np.linalg.matrix_rank(x[:, : j + 1]))
        if new_rank == rank:
            bad.append(j)
        rank = new_rank
    return bad


def f_pdf(t: float, d1: int, d2: int) -> float:
    """Density of the F(d1, d2) distribution, written from the definition."""
    if t <= 0:
        return 0.0
    logc = (
        math.lgamma((d1 + d2) / 2.0)
        - math.lgamma(d1 / 2.0)
        - math.lgamma(d2 / 2.0)
        + (d1 / 2.0) * math.log(d1 / d2)
    )
    logp = logc + (d1 / 2.0 - 1.0) * math.log(t) - ((d1 + d2) / 2.0) * math.log(
        1.0 + d1 * t / d2
    )
    return math.exp(logp)


def f_tail_by_quadrature(f_stat: float, d1: int, d2: int) -> float:
    """P(F > f_stat) by adaptive quadrature of the density."""
    value, _err = quad(f_pdf, f_stat, math.inf, args=(d1, d2), epsabs=1e-12, epsrel=1e-12)
    return value


def f_tail_by_betainc(f_stat: float, d1: int, d2: int) -> float:
    """P(F > f_stat) = I_x(d2/2, d1/2), x = d2/(d2 + d1 f), from scipy, which
    is handed the smaller of x and y = 1 - x, each computed without a
    subtraction: passed an x near 1, ``betainc`` loses the digits of 1 - x."""
    if f_stat == math.inf:
        return 0.0
    scaled = d1 * f_stat
    x, y = d2 / (d2 + scaled), scaled / (d2 + scaled)
    if x <= y:
        return float(betainc(d2 / 2.0, d1 / 2.0, x))
    return float(betaincc(d1 / 2.0, d2 / 2.0, y))


def f_tail_by_mpmath(f_stat: float, d1: int, d2: int) -> float:
    """P(F > f_stat) from mpmath's incomplete beta at 40 significant digits."""
    import mpmath

    with mpmath.workdps(40):
        f = mpmath.mpf(f_stat)
        x = d2 / (d2 + d1 * f)
        return float(mpmath.betainc(mpmath.mpf(d2) / 2, mpmath.mpf(d1) / 2, 0, x,
                                    regularized=True))


def _beta_continued_fraction_loop(a: float, b: float, x: float) -> float:
    """The modified Lentz continued fraction of I_x(a, b), the two steps of
    each term taken by a loop over their coefficients d_2m and d_2m+1."""
    tiny = sys.float_info.min / sys.float_info.epsilon
    eps = 2.0 * sys.float_info.epsilon
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) >= tiny else tiny)
    h = d
    for m in range(1, 10_001):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) >= tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) >= tiny else tiny
            step = d * c
            h *= step
        if abs(step - 1.0) <= eps:
            break
    return h


def f_tail_by_loop_fraction(f_stat: float, d1: int, d2: int) -> float:
    """P(F > f_stat) = I_x(d2/2, d1/2) for f_stat >= 0, summed by
    ``_beta_continued_fraction_loop`` with the log-gamma terms computed on
    every call."""
    if f_stat == math.inf:
        return 0.0
    ratio = d2 / d1
    x, y = ratio / (ratio + f_stat), f_stat / (ratio + f_stat)
    if y == 0.0:
        return 1.0
    if x == 0.0:
        return 0.0
    if d1 == 2:
        return x ** (d2 / 2.0)
    a, b = d2 / 2.0, d1 / 2.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(y))
    if x >= (a + 1.0) / (a + b + 2.0):
        return 1.0 - front * _beta_continued_fraction_loop(b, a, y) / b
    return front * _beta_continued_fraction_loop(a, b, x) / a


def scalar_kalman_positions(
    times: list[float],
    measurements: list[float],
    process_noise: float,
    measurement_noise: float,
) -> list[float]:
    """Textbook constant-velocity Kalman recursion on one scalar channel.

    Same model as the production filter (init at the first measurement with
    zero velocity, P0 = diag(r, 1)), implemented with plain floats and
    explicit 2x2 algebra.
    """
    q, r = process_noise, measurement_noise
    x0, x1 = measurements[0], 0.0
    p00, p01, p10, p11 = r, 0.0, 0.0, 1.0
    out = [x0]
    for i in range(1, len(times)):
        dt = times[i] - times[i - 1]
        # predict: x = F x, P = F P F' + Q
        x0 = x0 + dt * x1
        np00 = p00 + dt * (p10 + p01) + dt * dt * p11 + q * dt ** 4 / 4.0
        np01 = p01 + dt * p11 + q * dt ** 3 / 2.0
        np10 = p10 + dt * p11 + q * dt ** 3 / 2.0
        np11 = p11 + q * dt ** 2
        # update with the scalar position measurement: K = P H' / (H P H' + r)
        s = np00 + r
        k0 = np00 / s
        k1 = np10 / s
        innov = measurements[i] - x0
        x0 = x0 + k0 * innov
        x1 = x1 + k1 * innov
        # P = (I - K H) P
        p00 = np00 - k0 * np00
        p01 = np01 - k0 * np01
        p10 = np10 - k1 * np00
        p11 = np11 - k1 * np01
        out.append(x0)
    return out


def rk4_landing_batch(
    origins: np.ndarray,
    velocities: np.ndarray,
    gravity: float,
    landing_heights: np.ndarray,
    dt: float = 1e-4,
    t_max: float = 30.0,
) -> list[tuple[np.ndarray, float] | None]:
    """Vectorized RK4 over many launches (positions only need y-crossing
    detection; x/z follow the integrated state)."""
    n = origins.shape[0]
    state = np.hstack([origins.astype(float), velocities.astype(float)])
    g_vec = np.zeros(6)
    g_vec[4] = -gravity

    results: list[tuple[np.ndarray, float] | None] = [None] * n
    done = np.zeros(n, dtype=bool)
    # instantaneous degenerate "already there, falling" case
    at_plane = (state[:, 1] == landing_heights) & (state[:, 4] <= 0)
    for i in np.nonzero(at_plane)[0]:
        results[i] = (origins[i].copy(), 0.0)
        done[i] = True

    t = 0.0
    prev = state.copy()
    # derivative is affine, so RK4 has one shared closed step form:
    # pos += v dt + a dt^2/2 ; v += a dt  (exact for constant acceleration)
    accel = g_vec[3:]
    while t < t_max and not done.all():
        nxt = prev.copy()
        nxt[:, :3] += prev[:, 3:] * dt + 0.5 * accel * dt * dt
        nxt[:, 3:] += accel * dt
        t += dt
        crossing = (
            (~done)
            & (nxt[:, 4] <= 0)
            & (prev[:, 1] >= landing_heights)
            & (nxt[:, 1] <= landing_heights)
        )
        for i in np.nonzero(crossing)[0]:
            denom = prev[i, 1] - nxt[i, 1]
            w = (prev[i, 1] - landing_heights[i]) / denom if denom != 0 else 1.0
            cross = prev[i] + w * (nxt[i] - prev[i])
            results[i] = (cross[:3], t - dt + w * dt)
            done[i] = True
        prev = nxt
    return results


# --- aggregation by per-trial dictionaries ----------------------------------


def _key_order(key):
    tech = -1 if key.technique is None else list(Technique).index(key.technique)
    post = -1 if key.posture is None else list(Posture).index(key.posture)
    return (tech, post, key.width_m, key.distance_m, key.height_m)


def _condition_buckets(trials):
    """One ConditionKey per trial: the trials of each cell, in cell order."""
    buckets = {}
    for t in trials:
        buckets.setdefault(ConditionKey(t.technique, t.posture, t.width_m, t.distance_m, t.height_m), []).append(t)
    return {key: buckets[key] for key in sorted(buckets, key=_key_order)}


def group_by_condition_reference(trials):
    """A dict of lists, ``statistics.fmean`` per cell."""
    return {
        key: ConditionSummary(key=key, n_trials=len(cell),
                              mean_mt_s=statistics.fmean(t.movement_time_s for t in cell))
        for key, cell in _condition_buckets(trials).items()
    }


#: The unit roundoff of a float.
_U = Fraction(1, 2 ** 53)


def _exact_sd_bracket(values):
    """Fractions lo <= s <= hi around the exact sample SD s of ``values``,
    at most 2**-600 s apart, from integer sums: every value times the
    largest of their power-of-two denominators is an integer."""
    scale = max(x.as_integer_ratio()[1] for x in values)
    ints = [p * (scale // q) for p, q in map(float.as_integer_ratio, values)]
    n = len(ints)
    num = n * sum(a * a for a in ints) - sum(ints) ** 2
    den = n * (n - 1) * scale * scale * 2 ** 600
    root = math.isqrt(num * den * 2 ** 600)  # s = sqrt(num * den * 2**600) / den
    return Fraction(root, den), Fraction(root + 1, den)


def sd_error_bound(values):
    """How far from the exact SD s of a cell of ``values``, finite and not
    all equal, ``endpoint_sds`` states its SD to lie:
    (n + 8) u s + 16 n**3 u**3 M**2 / s + 2**-1074, with u = 2**-53 and M the
    largest |value|, each term at its largest over the bracket of s."""
    n, top = len(values), Fraction(max(abs(x) for x in values))
    lo, hi = _exact_sd_bracket(values)
    return (n + 8) * _U * hi + 16 * n ** 3 * _U ** 3 * top ** 2 / lo + Fraction(1, 2 ** 1074)


def assert_sd_within_bound(sd, values):
    """``sd``, the package's SD of one cell of ``values``, is what
    ``endpoint_sds`` states: 0.0 for fewer than two values or one finite
    value repeated, nan for a value that is not finite, inf for an exact SD
    beyond the float range, and otherwise a finite SD within
    ``sd_error_bound`` of the exact SD. No ``statistics.stdev`` is taken,
    so the check holds whichever way a Python version rounds stdev."""
    finite = all(map(math.isfinite, values))
    if len(values) < 2 or finite and min(values) == max(values):
        assert sd.hex() == "0x0.0p+0", values
    elif not finite:
        assert math.isnan(sd), values
    else:
        lo, hi = _exact_sd_bracket(values)
        if lo > sys.float_info.max:
            assert sd == math.inf, values
        else:
            assert math.isfinite(sd), values
            assert max(Fraction(sd) - lo, hi - Fraction(sd)) <= sd_error_bound(values), values


def we_relative_bound(values):
    """How far, relative to 4.133 x ``statistics.stdev``, a W_e of a cell of
    ``values`` may lie: ``sd_error_bound`` over the exact SD, which stdev
    rounds correctly, plus 3u for the two roundings of W_e = 4.133 x SD,
    one on each side."""
    return float(sd_error_bound(values) / _exact_sd_bracket(values)[0]) + 3 * 2.0 ** -53


def assert_sds_within_bound(sds, trials):
    """``sds``, ``endpoint_sds`` of ``trials``, holds the cells of
    ``group_by_condition_reference`` in its order, each SD as
    ``assert_sd_within_bound`` states it."""
    buckets = _condition_buckets(trials)
    assert list(sds) == list(buckets)
    for key, cell in buckets.items():
        assert_sd_within_bound(sds[key], [t.endpoint_deviation_m for t in cell])


def collapse_over_reference(summaries, drop, pooled=False):
    """Merge cells by rewriting keys."""
    drop = set(drop)
    if not drop:
        return dict(summaries)
    merged = {}
    for key, summary in summaries.items():
        new_key = replace(
            key,
            technique=None if "technique" in drop else key.technique,
            posture=None if "posture" in drop else key.posture,
        )
        merged.setdefault(new_key, []).append(summary)
    out = {}
    for key in sorted(merged, key=_key_order):
        cells = merged[key]
        n_total = sum(c.n_trials for c in cells)
        if pooled:
            w = [c.n_trials / n_total for c in cells]
        else:
            w = [1.0 / len(cells)] * len(cells)
        mean_mt = left_sum(wi * c.mean_mt_s for wi, c in zip(w, cells))
        out[key] = ConditionSummary(key=key, n_trials=n_total, mean_mt_s=mean_mt)
    return out


def throughput_by_group_reference(trials, amplitude_mode, allow_partial_grid=False):
    """Throughput grouped by rounded (D, H, W) tuples, W_e from ``statistics``."""
    groups = {}
    for t in trials:
        cellkey = (round(t.distance_m, 3), round(t.height_m, 3), round(t.width_m, 3))
        groups.setdefault((t.technique, t.posture), {}).setdefault(cellkey, []).append(t)
    tech_order = {t: i for i, t in enumerate(Technique)}
    post_order = {p: i for i, p in enumerate(Posture)}
    summaries = []
    for gkey in sorted(groups, key=lambda g: (tech_order[g[0]], post_order[g[1]])):
        cells_by_key = groups[gkey]
        if not allow_partial_grid:
            missing = [
                f"{gkey[0].value}/{gkey[1].value} D={d}m H={h}m W={w}m"
                for d in GRID_DISTANCES_M for h in GRID_HEIGHTS_M for w in GRID_WIDTHS_M
                if (d, h, w) not in cells_by_key
            ]
            if missing:
                raise IncompleteGridError(missing)
        cells = []
        degenerate = 0
        for cellkey in sorted(cells_by_key):
            cell_trials = cells_by_key[cellkey]
            d, h, w = cellkey
            devs = [t.endpoint_deviation_m for t in cell_trials]
            if len(devs) < 2:
                degenerate += 1
                continue
            we = 4.133 * statistics.stdev(devs)
            if we == 0.0:
                degenerate += 1
                continue
            if not math.isfinite(we):
                raise ValueError("effective width not finite")
            ae = amplitude_from_grid(d, h, amplitude_mode)
            ide = effective_id(ae, we)
            mean_mt = statistics.fmean(t.movement_time_s for t in cell_trials)
            cells.append(ThroughputCell(
                width_m=w, distance_m=d, height_m=h,
                n_trials=len(cell_trials), ae_m=ae, we_m=we, ide_bits=ide,
                mean_mt_s=mean_mt, tp_bits_per_s=ide / mean_mt,
            ))
        if not cells:
            raise ValueError("all cells degenerate")
        summaries.append(ThroughputSummary(
            technique=gkey[0], posture=gkey[1],
            tp_bits_per_s=statistics.fmean(c.tp_bits_per_s for c in cells),
            cells=tuple(cells), degenerate_cells=degenerate,
        ))
    return summaries


def assert_throughput_within_bound(got, expected, trials):
    """``got``, throughput of ``trials``, equals ``expected``, its
    ``throughput_by_group_reference``, but for the fields that take the
    endpoint SD. With r a cell's ``we_relative_bound``, they may differ by
    what r carries through each rounded step:

    - W_e by r W_e;
    - ID_e = log2(A_e / W_e + 1) by (r (1 + 2r) + 4u) / ln 2 + 4u ID_e, the
      four roundings of the quotient and the sum and two of log2;
    - ID_e / MT by that over MT plus 3u of it;
    - a group's mean by the mean of its cells' plus 3u of it."""
    deviations = {}
    for t in trials:
        deviations.setdefault((t.technique, t.posture, round(t.distance_m, 3),
                               round(t.height_m, 3), round(t.width_m, 3)),
                              []).append(t.endpoint_deviation_m)
    u = 2.0 ** -53
    assert [(g.technique, g.posture, g.degenerate_cells, len(g.cells)) for g in got] == [
        (e.technique, e.posture, e.degenerate_cells, len(e.cells)) for e in expected]
    for group, reference in zip(got, expected):
        group_tolerance = 0.0
        for cell, want in zip(group.cells, reference.cells):
            assert replace(cell, we_m=want.we_m, ide_bits=want.ide_bits,
                           tp_bits_per_s=want.tp_bits_per_s) == want
            values = deviations[(group.technique, group.posture, want.distance_m,
                                 want.height_m, want.width_m)]
            r = we_relative_bound(values)
            ide_tolerance = (r * (1 + 2 * r) + 4 * u) / math.log(2) + 4 * u * want.ide_bits
            tp_tolerance = ide_tolerance / want.mean_mt_s + 3 * u * want.tp_bits_per_s
            assert abs(cell.we_m - want.we_m) <= r * want.we_m
            assert abs(cell.ide_bits - want.ide_bits) <= ide_tolerance
            assert abs(cell.tp_bits_per_s - want.tp_bits_per_s) <= tp_tolerance
            group_tolerance += tp_tolerance / len(reference.cells)
        assert abs(group.tp_bits_per_s - reference.tp_bits_per_s) <= (
            group_tolerance + 3 * u * reference.tp_bits_per_s)


# --- per-sample kinematic layer -------------------------------------------


def synth_hand_trace_reference(
    from_point_m, to_point_m, duration_s, tremor_sd_m=0.0, sample_rate_hz=100.0,
    seed=0, direction=None, pinch_at_s=None,
):
    """Minimum-jerk reach plus tremor, one sample and one size-3 draw per step."""
    start = np.asarray(from_point_m, dtype=float)
    end = np.asarray(to_point_m, dtype=float)
    if direction is None:
        direction = np.array([0.0, 0.0, 1.0])
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    rng = np.random.default_rng(seed)
    trace = []
    for i in range(int(round(duration_s * sample_rate_hz)) + 1):
        t = i / sample_rate_hz
        pos = start + (end - start) * minimum_jerk_profile(min(t / duration_s, 1.0))
        if tremor_sd_m > 0:
            pos = pos + rng.normal(0.0, tremor_sd_m, size=3)
        pinch = pinch_at_s is not None and t >= pinch_at_s
        trace.append(HandSample(t, pos, direction.copy(), pinch))
    return trace


def stationary_trace_reference(position_m, direction, duration_s, sample_rate_hz=100.0,
                               pinch_at_s=None):
    out = []
    for i in range(int(round(duration_s * sample_rate_hz)) + 1):
        t = i / sample_rate_hz
        pinch = pinch_at_s is not None and t >= pinch_at_s
        out.append(HandSample(t, np.array(position_m, float), np.array(direction, float), pinch))
    return out


def _unit_reference(v):
    norm = float(np.linalg.norm(v))
    if norm < 1e-12:
        return np.array([0.0, 0.0, 1.0])
    return v / norm


def kalman_smooth_reference(trace, process_noise=50.0, measurement_noise=1e-4):
    """Constant-velocity Kalman filter stepped with 2x2 matrices per sample."""
    if not trace:
        return []
    q, r = float(process_noise), float(measurement_noise)
    z = np.array([np.concatenate([s.position_m, s.direction]) for s in trace])
    x = np.zeros((2, 6))
    x[0] = z[0]
    p = np.array([[r, 0.0], [0.0, 1.0]])
    out = [HandSample(trace[0].t_s, z[0, :3].copy(), _unit_reference(z[0, 3:]), trace[0].pinch)]
    for i in range(1, len(trace)):
        dt = trace[i].t_s - trace[i - 1].t_s
        f = np.array([[1.0, dt], [0.0, 1.0]])
        qk = q * np.array([[dt ** 4 / 4.0, dt ** 3 / 2.0], [dt ** 3 / 2.0, dt ** 2]])
        x = f @ x
        p = f @ p @ f.T + qk
        k = p[:, 0] / (p[0, 0] + r)
        x = x + np.outer(k, z[i] - x[0])
        p = p - np.outer(k, p[0, :])
        out.append(HandSample(trace[i].t_s, x[0, :3].copy(), _unit_reference(x[0, 3:]),
                              trace[i].pinch))
    return out


def kalman_operator_reference(steps, q, r):
    """The (T, T) operator of a T-sample trace with time steps ``steps``, built
    afresh: its own gains by the Riccati recursion, then one 2 x 3 product per
    step over the state rows (value, velocity) and the new sample's indicator
    row, in the float operations ``filters._kalman_operator`` makes."""
    p00, p01, p10, p11 = r, 0.0, 0.0, 1.0
    dts, k0s, k1s = [float(dt) for dt in steps], [], []
    for dt in dts:
        a, b = p00 + dt * p10, p01 + dt * p11
        p00 = a + b * dt + q * dt ** 4 / 4.0
        p01 = b + q * dt ** 3 / 2.0
        p10 = p10 + dt * p11 + q * dt ** 3 / 2.0
        p11 = p11 + q * dt ** 2
        k0, k1 = p00 / (p00 + r), p10 / (p00 + r)
        p00, p01, p10, p11 = p00 - k0 * p00, p01 - k0 * p01, p10 - k1 * p00, p11 - k1 * p01
        k0s.append(k0)
        k1s.append(k1)
    n = len(dts) + 1
    updates = np.empty((n - 1, 2, 3))
    updates[:, :, 2] = np.array([k0s, k1s]).reshape(2, -1).T
    updates[:, :, 0] = (1.0, 0.0) - updates[:, :, 2]
    updates[:, :, 1] = updates[:, :, 0] * np.array(dts)[:, None] + (0.0, 1.0)
    states = np.zeros((n, 3, n))
    states[np.arange(n - 1), 2, np.arange(1, n)] = 1.0
    for i in range(n - 1):
        states[i + 1, :2] = np.dot(updates[i], states[i])
    return states[:, 0].copy()


def kalman_smooth_operator_reference(trace, process_noise=50.0, measurement_noise=1e-4):
    """(positions, directions) of ``z[0] + M @ (z - z[0])`` on a trace's stacked
    (T, 6) channels, with M from :func:`kalman_operator_reference` on the
    trace's own steps; directions scaled to unit length row by row as
    ``filters._unit`` sums them."""
    z = np.concatenate((trace.position_m, trace.direction), axis=1)
    m = kalman_operator_reference(np.diff(trace.t_s), float(process_noise),
                                  float(measurement_noise))
    out = z[0] + m @ (z - z[0])
    x, y, w = out[:, 3:].T
    return out[:, :3], out[:, 3:] / np.sqrt(x * x + y * y + w * w)[:, None]


def _sample_at_reference(trace, t_s):
    if t_s <= trace[0].t_s:
        return trace[0]
    if t_s >= trace[-1].t_s:
        return trace[-1]
    hi = next(i for i, s in enumerate(trace) if s.t_s > t_s)
    a, b = trace[hi - 1], trace[hi]
    w = (t_s - a.t_s) / (b.t_s - a.t_s)
    return HandSample(t_s, a.position_m * (1 - w) + b.position_m * w,
                      _unit_reference(a.direction * (1 - w) + b.direction * w), a.pinch)


def run_trial_reference(config, scene, left_trace, right_trace, smooth_pointer=False):
    """The technique state machine fed one time-aligned sample pair at a time,
    with a per-sample dwell timer and a list-scan spike rollback."""
    pointer_right = config.pointer_hand == "right"
    if smooth_pointer:
        smoothed = kalman_smooth_reference(
            right_trace if pointer_right else left_trace,
            KALMAN_PROCESS_NOISE, KALMAN_MEASUREMENT_NOISE,
        )
        if pointer_right:
            right_trace = smoothed
        else:
            left_trace = smoothed
    history, errors, prev_pinch, anchor = [], 0, False, None
    for left, right in zip(left_trace, right_trace):
        assert abs(left.t_s - right.t_s) <= 1e-9
        pointer = right if pointer_right else left
        history.append(pointer)
        if config.confirm_hand is None:
            radius = DWELL_RADIUS_M
            if anchor is None or np.linalg.norm(pointer.position_m - anchor[1]) > radius:
                anchor = (pointer.t_s, pointer.position_m.copy())
            confirmed = pointer.t_s - anchor[0] >= DWELL_THRESHOLD_S
            if confirmed:
                anchor = (pointer.t_s, pointer.position_m.copy())
        else:
            pinch = (right if config.confirm_hand == "right" else left).pinch
            confirmed, prev_pinch = pinch and not prev_pinch, pinch
        if not confirmed:
            continue
        selection = _sample_at_reference(history, pointer.t_s - config.spike_lookback_s)
        landing = parabola_landing(selection.position_m, scene.launch_velocity(selection),
                                   scene.gravity_m_s2, landing_height_m=scene.target.height_m)
        if landing is None:
            errors += 1
            continue
        point = landing[0]
        hit, deviation = sphere_hit_test(point, scene.target.center(), scene.target.width_m)
        if not hit:
            errors += 1
            continue
        return TrialOutcome(
            movement_time_s=pointer.t_s - history[0].t_s,
            endpoint_deviation_m=deviation,
            error_attempts=errors,
            success=True,
            realized_amplitude_m=float(np.linalg.norm(point - scene.start_cube_center())),
            selection_point_m=tuple(float(v) for v in point),
        )
    return None


_POSTURE_BY_LOWER = {p.value.lower(): p for p in Posture}
_BOOLS = {"true": True, "false": False}


def _log_int(text):
    value = int(text)
    if not -(2 ** 63) <= value < 2 ** 63:
        raise ValueError(f"integer {text!r} is out of range")
    return value


def _log_row_reference(row, line_no):
    """The values of one csv row, or LogFormatError naming its first bad field."""
    if len(row) != 13:
        raise LogFormatError(f"expected 13 fields, found {len(row)}", line_no)
    try:
        technique = Technique(row[1])
        if row[2].lower() not in _POSTURE_BY_LOWER:
            raise ValueError(f"{row[2]!r} is not a valid Posture")
        block, trial_index = _log_int(row[3]), _log_int(row[4])
        floats = [float(text) for text in row[5:11]]
        errors = _log_int(row[11])
    except ValueError as exc:
        raise LogFormatError(str(exc), line_no) from None
    if row[12].strip().lower() not in _BOOLS:
        raise LogFormatError(f"{row[12]!r} is not a boolean (expected true/false)", line_no)
    return (row[0], list(Technique).index(technique),
            list(Posture).index(_POSTURE_BY_LOWER[row[2].lower()]), block, trial_index,
            *floats, errors, _BOOLS[row[12].strip().lower()])


def read_trial_log_reference(path):
    """The csv-module trial-log reader, one row at a time: what a log may hold,
    every LogFormatError message and line, and the table read, with its
    participant ids in order of first appearance and physical line numbers."""
    rows, lines = [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise LogFormatError("empty file, expected header row", 1)
            if header != TRIAL_LOG_HEADER.split(","):
                raise LogFormatError("unexpected header row", 1)
            for row in reader:
                if row:
                    rows.append(_log_row_reference(row, reader.line_num))
                    lines.append(reader.line_num)
        except csv.Error as exc:
            raise LogFormatError(f"malformed CSV: {exc}", reader.line_num) from None
    ids = {}
    for row in rows:
        ids.setdefault(row[0], len(ids))
    columns = list(zip(*rows)) or [()] * 13
    names = ("technique_code", "posture_code", "block", "trial_index", "width_m", "distance_m",
             "height_m", "angle_deg", "movement_time_s", "endpoint_deviation_m",
             "error_attempts", "success")
    return TrialTable(ids, line_numbers=lines, participant_code=[ids[p] for p in columns[0]],
                      **dict(zip(names, columns[1:])))


# --- study generation, one block at a time ---------------------------------


def generate_study_reference(config):
    """The per-block generator loop as it was written before the loop kept
    only the random draws: every column is filled block by block, and the
    angles are drawn with ``rng.choice``."""
    combos = [(t, p) for t in Technique for p in Posture]
    square = balanced_latin_square(len(combos))
    streams = np.random.SeedSequence(config.seed).spawn(config.participants)

    cell_grid = [
        (w, d, h)
        for w in config.widths_m
        for d in config.distances_m
        for h in config.heights_m
    ]
    cell_w, cell_d, cell_h = (np.array(axis, dtype=float) for axis in zip(*cell_grid))
    base_mt = np.array([
        predict_mt(
            config.ground_truth.kind,
            config.ground_truth.coefficients,
            geometry_for_condition(*cell, config.amplitude_mode),
        )
        for cell in cell_grid
    ])
    angle_choices = np.asarray(config.angles_deg, float)
    block_cells = np.repeat(np.arange(len(cell_grid)), config.repetitions)
    n_block = len(block_cells)
    n_total = config.participants * len(combos) * n_block
    columns = {
        "participant_code": np.repeat(np.arange(config.participants), len(combos) * n_block),
        "technique_code": np.empty(n_total, np.int8),
        "posture_code": np.empty(n_total, np.int8),
        "block": np.empty(n_total, np.int64),
        "trial_index": np.tile(np.arange(n_block), config.participants * len(combos)),
        "width_m": np.empty(n_total),
        "distance_m": np.empty(n_total),
        "height_m": np.empty(n_total),
        "angle_deg": np.empty(n_total),
        "movement_time_s": np.empty(n_total),
        "endpoint_deviation_m": np.empty(n_total),
        "error_attempts": np.empty(n_total, np.int64),
        "success": np.ones(n_total, bool),
    }

    start = 0
    for pi in range(config.participants):
        rng = np.random.default_rng(streams[pi])
        row = square[pi % len(square)]
        for block_idx, combo_idx in enumerate(row):
            technique, posture = combos[combo_idx]
            offset = config.technique_offsets_s.get(technique, 0.0)
            ordered = block_cells[rng.permutation(n_block)]

            angles = rng.choice(angle_choices, size=n_block)
            widths = cell_w[ordered]
            mt_mean = base_mt[ordered] + offset

            mt = mt_mean + rng.normal(0.0, config.mt_noise_sd_s, n_block) \
                if config.mt_noise_sd_s > 0 else mt_mean.copy()
            bad = mt <= 0
            redraws = 0
            while bad.any():
                if config.mt_noise_sd_s == 0.0 or redraws >= _MAX_REDRAWS:
                    cell = cell_grid[ordered[int(np.argmax(bad))]]
                    raise ConfigError(
                        f"ground truth produces non-positive movement time for "
                        f"cell W={cell[0]} D={cell[1]} H={cell[2]}"
                    )
                mt[bad] = mt_mean[bad] + rng.normal(0.0, config.mt_noise_sd_s, int(bad.sum()))
                bad = mt <= 0
                redraws += 1

            sigma = config.endpoint_sd_fraction_of_width * widths
            if config.endpoint_sd_fraction_of_width > 0:
                dev = np.abs(rng.normal(0.0, 1.0, n_block)) * sigma
            else:
                dev = np.zeros(n_block)
            attempts = np.zeros(n_block, dtype=int)
            outside = dev > widths / 2.0
            redraws = 0
            while outside.any():
                if redraws >= _MAX_REDRAWS:
                    raise ConfigError(
                        f"endpoint deviations still land outside the target after "
                        f"{_MAX_REDRAWS} redraws; endpoint_sd_fraction_of_width="
                        f"{config.endpoint_sd_fraction_of_width} is too large"
                    )
                attempts[outside] += 1
                dev[outside] = np.abs(
                    rng.normal(0.0, 1.0, int(outside.sum()))
                ) * sigma[outside]
                outside = dev > widths / 2.0
                redraws += 1

            block = slice(start, start + n_block)
            columns["technique_code"][block] = TECHNIQUES.index(technique)
            columns["posture_code"][block] = POSTURES.index(posture)
            columns["block"][block] = block_idx
            columns["width_m"][block] = widths
            columns["distance_m"][block] = cell_d[ordered]
            columns["height_m"][block] = cell_h[ordered]
            columns["angle_deg"][block] = angles
            columns["movement_time_s"][block] = mt
            columns["endpoint_deviation_m"][block] = dev
            columns["error_attempts"][block] = attempts
            start += n_block
    participant_ids = [f"P{pi + 1:02d}" for pi in range(config.participants)]
    return TrialTable(participant_ids, **columns)
