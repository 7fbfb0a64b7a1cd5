"""Ordinary least squares with the diagnostics used for model comparison.

The solver is a Householder QR with a fixed elimination order, so repeated
fits of the same data are bit-identical. Saturated fits (residuals at or
below float resolution of the response variance) report R^2 = 1 and the
infinity sentinels instead of meaningless log-ratios.

A report fits many responses on few designs: every group of a study shares
its (W, D, H) cells, so the four models' design matrices repeat from group
to group. A fit's input is a :class:`Design`, which holds the matrix, the
response and the matrix's read-only QR factors. Plain rows are checked and
factored once per distinct design: later rows with the same design bytes
reuse the cached factors. The fits stay bit-identical to factoring afresh,
because the cache holds exactly what ``np.linalg.qr`` returns and the solve
multiplies by ``q.T`` as a view of it, as an uncached fit does (a contiguous
copy of ``q.T`` changes the rounding of the product).
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .models import PredictorRow, _frozen


class CollinearPredictorsError(ValueError):
    """Design matrix is rank deficient; ``columns`` are the offending predictors."""

    def __init__(self, columns: Sequence[int]):
        cols = ", ".join(str(c) for c in columns)
        super().__init__(f"collinear predictors: columns [{cols}]")
        self.columns = tuple(columns)


@dataclass(frozen=True)
class FitResult:
    """Fitted coefficients plus the diagnostic battery.

    ``coefficients`` is (intercept, slope_1, ..., slope_p). ``aic`` and
    ``bic`` use the Gaussian-likelihood form with additive constants
    dropped, n*ln(rss/n) + penalty, with k = p + 1 parameters counted.
    """

    coefficients: tuple[float, ...]
    rss: float
    r2: float
    adj_r2: float
    f_stat: float
    p_value: float
    aic: float
    bic: float
    n: int
    p: int


def adj_r2(r2: float, n: int, p: int) -> float:
    """Degrees-of-freedom adjusted R^2: 1 - (1 - R^2)(n - 1)/(n - p - 1)."""
    if n <= p + 1:
        raise ValueError(f"adjusted R^2 undefined for n={n}, p={p}")
    return 1.0 - (1.0 - r2) * (n - 1) / (n - p - 1)


#: Most terms of the continued fraction summed. It needs about
#: sqrt(max(a, b)) of them: tens for a model comparison, under 10 000 for
#: degrees of freedom up to 1e10.
_CF_MAX_TERMS = 10_000
#: A step whose factor is this close to 1 ends the continued fraction.
_CF_EPS = 2.0 * sys.float_info.epsilon
#: Lentz's stand-in for a zero denominator.
_CF_TINY = sys.float_info.min / sys.float_info.epsilon


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) / (x**a (1-x)**b / (a B(a, b))),
    evaluated by the modified Lentz method (Numerical Recipes, sec. 6.4).
    Converges fast for x < (a + 1)/(a + b + 2)."""
    tiny = _CF_TINY
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) >= tiny else tiny)
    h = d
    for m in range(1, _CF_MAX_TERMS + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))  # d_2m
        d = 1.0 + aa * d
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = 1.0 + aa / c
        c = c if abs(c) >= tiny else tiny
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))  # d_2m+1
        d = 1.0 + aa * d
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = 1.0 + aa / c
        c = c if abs(c) >= tiny else tiny
        step = d * c
        h *= step
        if abs(step - 1.0) <= _CF_EPS:
            break
    return h


@functools.lru_cache(maxsize=256)
def _log_beta_inverse(a: float, b: float) -> float:
    """ln(1 / B(a, b)) = lgamma(a + b) - lgamma(a) - lgamma(b); a report
    asks for the same few degrees of freedom over and over."""
    return math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)


def _regularized_beta(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b) for 0 < x < 1, with y = 1 - x passed in so that neither is
    taken from the other by a cancelling subtraction."""
    front = math.exp(_log_beta_inverse(a, b) + a * math.log(x) + b * math.log(y))
    if x >= (a + 1.0) / (a + b + 2.0):  # I_x(a, b) = 1 - I_y(b, a)
        return 1.0 - front * _beta_continued_fraction(b, a, y) / b
    return front * _beta_continued_fraction(a, b, x) / a


def f_tail_probability(f_stat: float, d1: float, d2: float) -> float:
    """Upper tail of the F(d1, d2) distribution via the regularized
    incomplete beta function: P(F > f) = I_x(d2/2, d1/2), x = d2/(d2 + d1 f).

    The degrees of freedom are real numbers of at least 1, such as the
    Greenhouse-Geisser corrected eps*(d1, d2) of a repeated-measures test.
    For d1 = 2 this is x**(d2/2) exactly; otherwise the continued fraction
    of I_x is summed. Against 40-digit values it is within 2e-13 relative
    for integer d1 <= 8 and d2 <= 60, and within 1e-13 at eps*(d1, d2) for
    eps from 0.25 to 0.9 (sampled); past about a thousand degrees of freedom
    the lgamma differences lose digits (1e-10 relative at 1e5, and 1.6e-13
    already at 0.9*(99, 297)).
    ``f_stat = inf`` is the saturated-fit sentinel and gives 0.0; nan and
    negative statistics are errors.
    """
    if d1 < 1 or d2 < 1:
        raise ValueError(f"degrees of freedom must be positive, got ({d1}, {d2})")
    if not f_stat >= 0:
        raise ValueError(f"F statistic must be non-negative, got {f_stat}")
    if f_stat == math.inf:
        return 0.0
    ratio = d2 / d1  # x = ratio/(ratio + f): d1 * f could overflow
    x, y = ratio / (ratio + f_stat), f_stat / (ratio + f_stat)
    if y == 0.0:  # f = 0, or below the resolution of ratio
        return 1.0
    if x == 0.0:  # ratio below the resolution of f
        return 0.0
    if d1 == 2:
        return x ** (d2 / 2.0)
    return _regularized_beta(d2 / 2.0, d1 / 2.0, x, y)


def overall_f(r2: float, n: int, p: int) -> tuple[float, float]:
    """Overall regression F test of all slopes against the intercept-only model."""
    if n <= p + 1:
        raise ValueError(f"overall F undefined for n={n}, p={p}")
    if r2 >= 1.0:
        return math.inf, 0.0
    f = (r2 / p) / ((1.0 - r2) / (n - p - 1))
    return f, f_tail_probability(f, p, n - p - 1)


def information_criteria(rss: float, n: int, k: int) -> tuple[float, float]:
    """(AIC, BIC) for a Gaussian fit with rss over n observations, k parameters.

    AIC is derived from BIC through the penalty difference 2k - k*ln(n),
    keeping the pair consistent to the last bit at reference inputs.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    if rss < 0:
        raise ValueError(f"rss must be non-negative, got {rss}")
    if rss == 0.0:
        return -math.inf, -math.inf
    base = n * math.log(rss / n)
    bic_val = base + k * math.log(n)
    aic_val = bic_val + (2.0 * k - k * math.log(n))
    return aic_val, bic_val


def _design_matrix(rows: Sequence[PredictorRow]) -> tuple[np.ndarray, np.ndarray]:
    p = len(rows[0].predictors)
    x = np.ones((len(rows), p + 1))
    try:
        x[:, 1:] = [r.predictors for r in rows]
        y = np.array([r.response_mt_s for r in rows], dtype=float)
        if np.isfinite(x).all() and np.isfinite(y).all():
            return x, y
    except ValueError:  # rows of unequal length
        pass
    for i, r in enumerate(rows):  # name the first offending row
        if len(r.predictors) != p:
            raise ValueError(f"row {i} has {len(r.predictors)} predictors, expected {p}")
        for v in (*r.predictors, r.response_mt_s):
            if not math.isfinite(v):
                raise ValueError(f"row {i} contains a non-finite value")
    raise ValueError("the rows do not form a numeric design matrix")


def total_sum_of_squares(y: np.ndarray) -> float:
    """sum((y - mean(y))**2), the mean taken as np.mean takes it; inf or nan,
    with no numpy warning, when it overflows (``ols_fit`` raises on that)."""
    with np.errstate(all="ignore"):
        ybar = float(y.sum()) / len(y)
        return float(((y - ybar) ** 2).sum())


def _collinear_columns(x: np.ndarray, r: np.ndarray) -> list[int]:
    """Predictor indices (1-based within the slope block) that add no rank.

    ``r`` is the triangular QR factor of ``x``. Column j adds no rank when
    |R[j, j]|, its distance from the span of the columns before it, is within
    ``np.linalg.matrix_rank``'s tolerance for the leading j + 1 columns,
    max(n, j + 1) * eps * norm, taking the Frobenius norm of those columns.
    """
    n = x.shape[0]
    eps = np.finfo(x.dtype).eps
    norms = np.sqrt(np.cumsum(np.sum(x * x, axis=0)))
    return [
        j for j in range(1, x.shape[1])
        if abs(r[j, j]) <= max(n, j + 1) * eps * norms[j]
    ]


def _factor(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (Q, R) of the design matrix ``x``; CollinearPredictorsError
    when it is rank-deficient."""
    q, r = np.linalg.qr(x)
    bad = _collinear_columns(x, r)
    if bad:
        raise CollinearPredictorsError(bad)
    q.flags.writeable = r.flags.writeable = False
    return q, r


class Design(Sequence):
    """A regression design held column-wise: the design matrix ``x`` (n, p + 1),
    intercept column first, the response ``y`` (n,) and the QR factors
    ``q``, ``r`` of ``x``, all read-only, and ``tss``, the
    :func:`total_sum_of_squares` of ``y``. As a ``Sequence[PredictorRow]``
    it builds a row only when indexed or iterated.

    :meth:`from_rows` checks plain rows and factors their matrix;
    ``comparison.rows_for_model`` builds a design from cached ``(x, q, r)``
    and a response shared by the four models of a group, which is why the
    constructor trusts its factors and ``tss`` and takes every array
    read-only as given.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, q: np.ndarray, r: np.ndarray,
                 tss: float):
        self.x, self.y, self.q, self.r, self.tss = x, y, q, r, tss

    @classmethod
    def from_rows(cls, rows: Sequence[PredictorRow]) -> "Design":
        """The checked, factored design of plain rows; a design is returned
        as is. Raises ValueError on no rows, on the first row of the wrong
        length or with a non-finite value, and on fewer than p + 2 rows, and
        CollinearPredictorsError on a rank-deficient matrix."""
        if type(rows) is cls or isinstance(rows, Design):
            return rows
        if not rows:
            raise ValueError("no observations")
        x, y = _design_matrix(rows)
        n, cols = x.shape
        if n < cols + 1:
            raise ValueError(f"need at least p + 2 = {cols + 1} observations, got {n}")
        x.flags.writeable = y.flags.writeable = False
        return cls(x, y, *_factor(x), total_sum_of_squares(y))

    def __len__(self) -> int:
        return len(self.y)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        return PredictorRow(tuple(self.x[i, 1:].tolist()), float(self.y[i]))

    def __repr__(self) -> str:
        return f"Design({len(self)} rows, {self.x.shape[1] - 1} predictors)"


def ols_fit(rows: Sequence[PredictorRow]) -> FitResult:
    """Least-squares fit with intercept and the full diagnostic set, of plain
    rows or of a :class:`Design` (see :meth:`Design.from_rows` for the
    errors of the rows).

    Raises OverflowError, and emits no numpy warning, when the residual or
    total sum of squares overflows (a response near the float limit).
    """
    design = Design.from_rows(rows)
    x, y, q, r, tss = design.x, design.y, design.q, design.r, design.tss
    n, cols = x.shape
    p = cols - 1
    with np.errstate(all="ignore"):  # a response near the float limit: raised below
        coef = np.linalg.solve(r, q.T @ y)
        resid = y - x @ coef
        rss = float(resid @ resid)
    for name, value in (("residual", rss), ("total", tss)):
        if not math.isfinite(value):
            raise OverflowError(f"{name} sum of squares overflows to {value}")

    if tss == 0.0:
        r2 = 1.0  # constant response: the intercept alone is a perfect fit
    else:
        # slopes that explain nothing can leave rss a rounding error above tss
        r2 = max(0.0, 1.0 - rss / tss)
    return fit_result(coef.tolist(), rss, r2, n, p)


def fit_result(coefficients: Sequence[float], rss: float, r2: float, n: int, p: int) -> FitResult:
    """The fit with every diagnostic derived from its five independent values;
    a saturated fit (rss 0 or R^2 1) gets adjusted R^2 = 1 and the infinity
    sentinels."""
    if rss == 0.0 or r2 == 1.0:
        adj = 1.0
        f_stat, p_value = math.inf, 0.0
        aic_val, bic_val = -math.inf, -math.inf
    else:
        adj = adj_r2(r2, n, p)
        f_stat, p_value = overall_f(r2, n, p)
        aic_val, bic_val = information_criteria(rss, n, p + 1)

    return _frozen(FitResult, coefficients=tuple(map(float, coefficients)), rss=rss, r2=r2,
                   adj_r2=adj, f_stat=f_stat, p_value=p_value, aic=aic_val, bic=bic_val,
                   n=n, p=p)


def partial_f(full: FitResult, reduced: FitResult) -> tuple[float, float]:
    """Nested-model F test: does the full model's extra freedom pay off?

    Nesting cannot be re-derived from the fit results alone, so it is
    enforced by its observable consequence: the full model's rss may not
    exceed the reduced model's.
    """
    if full.n != reduced.n:
        raise ValueError(f"mismatched observation counts: {full.n} != {reduced.n}")
    if reduced.p >= full.p:
        raise ValueError("reduced model must have fewer predictors than the full model")
    slack = 1e-10 * max(1.0, reduced.rss)
    if full.rss > reduced.rss + slack:
        raise ValueError("models are not nested: full rss exceeds reduced rss")
    d1 = full.p - reduced.p
    d2 = full.n - full.p - 1
    if d2 < 1:
        raise ValueError("no residual degrees of freedom in the full model")
    if full.rss == 0.0:
        return math.inf, 0.0
    f = ((reduced.rss - full.rss) / d1) / (full.rss / d2)
    f = max(f, 0.0)  # guard the slack window
    return f, f_tail_probability(f, d1, d2)
