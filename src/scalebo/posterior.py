"""Readings of the conjugate posterior that summarize, stop and flag a run;
the run's stop rule, :func:`scalebo.driver.decide`, reads them.  With
nu = n - 2 (see :mod:`scalebo.glm`), a | D ~ t_nu(a_hat, s2 * V_theta[0, 0])
exactly, so whether a is identified is one Student-t tail; only the beta*
quantiles use draws.  The stop region gives two readings, whether a record
has settled and how many more rows it is predicted to need
(:func:`stop_reading`).  Every reader takes ``bounds`` as a
``BoConfig.bounds``, checked there, and adds no check of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import acquisition, glm

# Posterior draws behind each per-iteration beta* summary.
SUMMARY_DRAWS = 500

# The exponent a is identified when P(a > 0 | D) or P(a < 0 | D) is at
# most this level (a two-sided 95% test).
SIGN_LEVEL = 0.025

# Relative width of the plug-in objective's optimal region that the 95%
# beta* interval must lie inside for a record to count as settled.
STOP_REGION_REL = 0.10


@dataclass(frozen=True)
class PosteriorSummary:
    """Quantiles of the clamped posterior beta* | data, and P(a > 0 | data)."""

    q025: float
    q500: float
    q975: float
    p_a_positive: float

    @property
    def a_identified(self) -> bool:
        """Either tail of a | data at 0 is at most ``SIGN_LEVEL``."""
        return min(self.p_a_positive, 1.0 - self.p_a_positive) <= SIGN_LEVEL


def t_sf(t: float, dof: int) -> float:
    """P(T > t) for T Student t with integer ``dof`` >= 1, from the finite
    sums for P(|T| <= |t|) of Abramowitz & Stegun 26.7.3 (odd dof) and
    26.7.4 (even dof), capped at 1, which they round past near |t| = inf."""
    theta = math.atan2(abs(t), math.sqrt(dof))
    sin, c2, odd = math.sin(theta), math.cos(theta) ** 2, dof % 2
    term, total = 1.0, 0.0
    for j in range(1 + odd, dof, 2):
        total += term
        term *= c2 * j / (j + 1)
    cdf = min(1.0, (theta + sin * math.cos(theta) * total) * (2 / math.pi) if odd else sin * total)
    return 0.5 * (1.0 - cdf) if t >= 0 else 0.5 * (1.0 + cdf)


def p_a_positive(fit: glm.GlmFit) -> float:
    """P(a > 0 | data); with no width, a step at a_hat that is 0.5 at
    a_hat = 0 (the t tail's value there), so a flat exact fit is unidentified."""
    scale = math.sqrt(fit.s2 * fit.v_theta[0, 0])
    if scale > 0.0:
        return t_sf(-fit.a_hat / scale, fit.dof)
    return 0.5 if fit.a_hat == 0.0 else float(fit.a_hat > 0)


def point_estimate(fit: glm.GlmFit, s0: float, bounds: tuple[float, float]) -> float:
    """Plug-in argmin projected onto the bounds (in log space); NaN only when
    the plug-in objective is constant (see :func:`acquisition.log_argmin`)."""
    ln_star = acquisition.log_argmin_float(fit.a_hat, fit.ln_b_hat, fit.s2, s0)
    return acquisition.clamp_log_float(ln_star, bounds)


def summarize(fit: glm.GlmFit, s0: float, bounds: tuple[float, float], rng) -> PosteriorSummary:
    """2.5/50/97.5 quantiles of ``SUMMARY_DRAWS`` draws of beta* | data,
    clamped into bounds, and :func:`p_a_positive`.  Without draws (s2 = 0)
    every quantile is the point estimate, NaN included.

    The quantiles are ``np.quantile``'s (method ``linear``) of the clamped
    draws, read from order statistics: clamping is monotone, so the draws
    of ln beta* are sorted once unclamped, in place, and only the at most
    six order statistics the quantiles interpolate between are clamped.
    """
    p = p_a_positive(fit)
    if not fit.s2 > 0.0:
        pe = point_estimate(fit, s0, bounds)
        return PosteriorSummary(q025=pe, q500=pe, q975=pe, p_a_positive=p)
    ordered = acquisition.log_argmin(*glm.sample_posterior(fit, SUMMARY_DRAWS, rng), s0)
    ordered.sort()
    quantiles = []
    for prob in (0.025, 0.5, 0.975):
        virtual = (SUMMARY_DRAWS - 1) * prob
        lo = math.floor(virtual)
        t = virtual - lo
        below = acquisition.clamp_log_float(ordered[lo], bounds)
        above = acquisition.clamp_log_float(ordered[min(lo + 1, SUMMARY_DRAWS - 1)], bounds)
        diff = above - below
        quantiles.append(above - diff * (1 - t) if t >= 0.5 else below + diff * t)
    q025, q500, q975 = quantiles
    return PosteriorSummary(q025=q025, q500=q500, q975=q975, p_a_positive=p)


def stop_reading(fit: glm.GlmFit, summary: PosteriorSummary, s0: float,
                 bounds: tuple[float, float]) -> tuple[bool, float]:
    """``(settled, shortfall)`` of a record, both read from one stop region:
    the 10% region of the plug-in objective on (a_hat, exp(ln_b_hat), s2)
    within bounds.

    *settled*: a is identified and the 95% beta* interval lies inside the
    region.  *shortfall*: the number of extra usable rows after which that
    interval, shrunk about its median at the 1/sqrt(n) rate, fits the
    region, with n = dof + 2 the usable rows so far.  In ln beta, ``room``
    is the smaller of the two ratios (gap from q500 to the region's edge)
    / (q500 to q025 or q975), where a half of zero width never constrains
    it; k more rows shrink the interval by sqrt(n / (n + k)), so the
    shortfall is n / room^2 - n, inf at room = 0.  It is 0 where a is
    unidentified, the record is settled, or q500 lies outside the region.
    Raises ``SurrogateOverflow`` where a is identified but ln beta* is +-inf.
    """
    if not summary.a_identified:
        return False, 0.0
    lo, hi = acquisition.optimal_region_from(fit.a_hat, fit.ln_b_hat, fit.s2, s0,
                                             STOP_REGION_REL, bounds)
    if lo <= summary.q025 and summary.q975 <= hi:
        return True, 0.0
    if not lo <= summary.q500 <= hi:   # NaN included
        return False, 0.0
    ln_mid = math.log(summary.q500)
    room = math.inf
    for edge, end in ((lo, summary.q025), (hi, summary.q975)):
        half = abs(math.log(end) - ln_mid)
        if half > 0.0:
            room = min(room, abs(math.log(edge) - ln_mid) / half)
    n = fit.dof + 2
    return False, math.inf if room == 0.0 else n / room / room - n


def flag(summary: PosteriorSummary, bounds: tuple[float, float]) -> str | None:
    """What a run's last summary says about its answer, or None."""
    if not summary.a_identified:
        return "unidentified"
    for name, bound in zip(("boundary-min", "boundary-max"), bounds):
        if summary.q025 == summary.q975 == bound:
            return name
    return None
