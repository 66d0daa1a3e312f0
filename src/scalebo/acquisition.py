"""Analytic surrogate objective and closed-form Thompson sampling.

For fixed parameters (a, b, eps2) the conditional model
``s | beta = b * beta^a * zeta`` with ``zeta ~ logN(0, eps2)`` induces an
objective with an exact expectation:

    f(beta) = E[|s - s0|^2 | beta]
            = b^2 exp(eps2) expm1(eps2) beta^(2a) + (b exp(eps2/2) beta^a - s0)^2.

f has a single interior critical point on (0, inf), which is its global
minimum for either sign of a:

    beta* = (s0 / (b * exp(1.5 * eps2)))^(1/a).

Thompson sampling therefore needs no numerical optimizer: each posterior
draw of (a, ln_b, eps2) maps straight to its optimizer through the formula
above, in log space and clamped onto the bounds.  A flat objective (a = 0)
is no special case: ln beta* = +-inf clamps onto a bound, and only a
constant one (a = 0, s0 = b * exp(1.5 * eps2)) gives 0/0 = NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import glm
from .errors import SurrogateOverflow
from .jsonio import check_bounds, check_count, check_number, check_positive_array

# exp() overflows float64 just above this exponent.
_LOG_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class SurrogateObjective:
    """The induced objective f(beta) for one fixed parameter triple.

    ``eps2 = 0`` is allowed (deterministic surrogate: the variance term
    vanishes) even though posterior draws never produce it.
    """

    a: float
    b: float
    eps2: float
    s0: float

    def __post_init__(self):
        check_number("a", self.a)
        check_number("b", self.b, 0.0, above=True)
        check_number("eps2", self.eps2, 0.0)
        check_number("s0", self.s0, 0.0, above=True)


@dataclass(frozen=True)
class ThompsonBatch:
    """One synchronous batch of Thompson proposals."""

    betas: list[float]
    clamped_count: int


def evaluate(obj: SurrogateObjective, beta):
    """f(beta), elementwise over a scalar (giving a float) or an array.

    Formed in log space, so that a value float64 cannot represent
    surfaces as an explicit :class:`SurrogateOverflow` instead of a
    silent infinity.
    """
    arr = check_positive_array("beta", beta)
    a, ln_b, eps2, s0 = obj.a, math.log(obj.b), obj.eps2, obj.s0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        t = a * np.log(arr)
        mean_term = np.exp(ln_b + 0.5 * eps2 + t)
        var_term = np.exp(2.0 * (ln_b + t) + eps2 + np.log(np.expm1(eps2)))
        values = var_term + (mean_term - s0) ** 2
    if not np.all(np.isfinite(values)):
        raise SurrogateOverflow(f"f(beta) overflows float64 (a = {obj.a:g}, b = {obj.b:g})")
    return float(values) if np.ndim(values) == 0 else values


def log_argmin(a, ln_b, eps2, s0: float) -> np.ndarray:
    """ln of the unconstrained minimizer, elementwise over array arguments.

    Kept in log space so callers can clamp to a feasible interval before
    exponentiating.  The IEEE quotient ``(ln s0 - ln_b - 1.5 eps2) / a``:
    a = +-0 gives +-inf by the signs, and 0/0 (a constant objective) NaN.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return (math.log(s0) - ln_b - 1.5 * eps2) / np.asarray(a, dtype=float)


def log_argmin_float(a: float, ln_b: float, eps2: float, s0: float) -> float:
    """:func:`log_argmin` of one parameter triple, as a float with the same
    bits, +-inf and NaN included (Python's ``x / 0.0`` raises, and
    ``x * +-inf`` is IEEE's ``x / +-0``)."""
    numerator = math.log(s0) - ln_b - 1.5 * eps2
    return numerator / a if a else numerator * math.copysign(math.inf, a)


def clamp_log_float(ln_beta: float, bounds: tuple[float, float]) -> float:
    """``exp(ln_beta)`` projected in log space onto ``[beta_min, beta_max]``.

    A value beyond a log bound is that bound exactly (``exp(log(60.0))``
    is 59.999999999999986), and exp of a log inside the bounds, which can
    round to just outside them, is clipped onto them; NaN stays NaN.
    numpy's exp, not ``math.exp``, whose last bit can differ.
    """
    beta_min, beta_max = bounds
    if ln_beta < math.log(beta_min):
        return float(beta_min)
    if ln_beta > math.log(beta_max):
        return float(beta_max)
    return float(min(max(float(np.exp(ln_beta)), beta_min), beta_max))


def clamp_log_array(ln_beta: np.ndarray, bounds: tuple[float, float]) -> tuple[np.ndarray, int]:
    """``(beta, clamped)``: :func:`clamp_log_float` of each entry of the
    float array ``ln_beta``, as a new array with the same bits, and the
    number of entries beyond a log bound.  Where there are such entries,
    the exp is taken of ``ln_beta`` cut to the log bounds, which leaves an
    entry inside them as it is and keeps the exp of one beyond them
    finite, and that entry is then set to its bound."""
    beta_min, beta_max = bounds
    ln_lo, ln_hi = math.log(beta_min), math.log(beta_max)
    clamped = int(np.count_nonzero((ln_beta < ln_lo) | (ln_beta > ln_hi)))
    beta = np.exp(np.minimum(np.maximum(ln_beta, ln_lo), ln_hi) if clamped else ln_beta)
    np.maximum(beta, beta_min, out=beta)
    np.minimum(beta, beta_max, out=beta)
    if clamped:
        beta[ln_beta < ln_lo] = beta_min
        beta[ln_beta > ln_hi] = beta_max
    return beta, clamped


def argmin_closed_form(obj: SurrogateObjective) -> tuple[float, float]:
    """Global minimizer of f over (0, inf) and its objective value.

    Returns ``(beta_star, f_star)`` with
    ``beta_star = (s0 / (b * exp(1.5 eps2)))^(1/a)``; this is the unique
    interior critical point for either sign of a.  Raises
    :class:`SurrogateOverflow` where beta* is not a positive float (a = 0).
    """
    ln_beta_star = log_argmin_float(obj.a, math.log(obj.b), obj.eps2, obj.s0)
    if not abs(ln_beta_star) <= _LOG_MAX:
        raise SurrogateOverflow(f"argmin exp({ln_beta_star:g}) is not representable")
    beta_star = math.exp(ln_beta_star)
    if beta_star == 0.0:
        raise SurrogateOverflow(f"argmin exp({ln_beta_star:g}) underflows to zero")
    return beta_star, evaluate(obj, beta_star)


def optimal_region(obj: SurrogateObjective, rel: float = 0.10) -> tuple[float, float]:
    """Interval of beta where f stays within ``(1 + rel)`` of its minimum
    over (0, inf); see :func:`optimal_region_from`."""
    return optimal_region_from(obj.a, math.log(obj.b), obj.eps2, obj.s0, rel)


def optimal_region_from(
    a: float, ln_b: float, eps2: float, s0: float, rel: float = 0.10,
    bounds: tuple[float, float] | None = None,
) -> tuple[float, float]:
    """Interval of beta where the objective of (a, ln_b, eps2, s0) stays
    within ``(1 + rel)`` of its minimum.

    Substituting u = (beta / beta*)^a turns f into the quadratic
    ``s0^2 (m (u - 1)^2 + 1 - m)`` with ``m = exp(-eps2)``, so
    ``(1 - m) / m = expm1(eps2)``.  If the minimum sits at ``u_min``,
    ``f <= (1 + rel) f(u_min)`` solves exactly to
    ``u = 1 +- sqrt((1 + rel) (u_min - 1)^2 + rel * expm1(eps2))``.

    Over (0, inf) the minimum is beta* itself (``u_min = 1``).  With
    ``bounds``, f is minimized over ``[beta_min, beta_max]``: at beta* if
    it lies inside, else at the nearer bound, where the region then
    starts.  The region is cut to the bounds by :func:`clamp_log_float`,
    so an edge at or beyond a bound is that bound exactly.

    A degenerate (eps2 = 0) objective has a single-point region; if the
    lower u root is nonpositive the region is unbounded on one side and
    the corresponding endpoint is 0 or inf (or the bound).  Works in log
    space from ``ln_b``, so with ``bounds`` a b or beta* beyond float
    range still has a region.  Scalar arithmetic throughout.  Raises
    :class:`SurrogateOverflow` where ln beta* is +-inf or NaN (a = 0), and
    without ``bounds`` where beta* is not a positive float.
    """
    check_number("rel", rel, 0.0)
    if bounds is not None:
        check_bounds(bounds)
    ln_star = log_argmin_float(a, ln_b, eps2, s0)
    if not (abs(ln_star) <= _LOG_MAX if bounds is None else math.isfinite(ln_star)):
        raise SurrogateOverflow(f"argmin exp({ln_star:g}) is not representable")
    if bounds is None:
        u_min = 1.0
    else:
        ln_min = min(max(ln_star, math.log(bounds[0])), math.log(bounds[1]))
        u_min = math.exp(a * (ln_min - ln_star))
    du = math.sqrt((1.0 + rel) * (u_min - 1.0) ** 2 + rel * math.expm1(eps2))
    edges = (
        ln_star + math.log1p(du) / a,
        ln_star + math.log1p(-du) / a if du < 1.0 else -math.copysign(math.inf, a),
    )
    if bounds is None:
        return math.exp(min(edges)), math.exp(max(edges))
    return clamp_log_float(min(edges), bounds), clamp_log_float(max(edges), bounds)


def thompson_batch(
    fit: glm.GlmFit,
    s0: float,
    batch_size: int,
    bounds: tuple[float, float],
    rng: np.random.Generator,
) -> ThompsonBatch:
    """Draw a synchronous batch of Thompson proposals.

    The batch is one block of posterior draws, each mapped through the
    closed-form argmin :func:`log_argmin` and clamped as one array by
    :func:`clamp_log_array` (in log space, so no intermediate overflow)
    onto ``[beta_min, beta_max]``.  Nothing is redrawn: a draw whose
    exponent is zero or nearly so proposes a bound, as any draw whose
    optimizer lies beyond one does, and boundary proposals still carry
    information.  ``clamped_count`` counts the draws whose ln beta* lies
    outside the log bounds.

    Raises
    ------
    DegenerateVariance
        Propagated from posterior sampling when ``fit.s2`` is zero.
    """
    check_count("batch_size", batch_size, 1)
    check_bounds(bounds)
    ln_star = log_argmin(*glm.sample_posterior(fit, batch_size, rng), s0)
    betas, clamped = clamp_log_array(ln_star, bounds)
    return ThompsonBatch(betas=betas.tolist(), clamped_count=clamped)
