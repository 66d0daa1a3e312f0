"""Residual-model diagnostics for the log-log fit.

The surrogate assumes stationary Gaussian noise in log space.  These
helpers quantify how well that holds on real data: per-beta conditional
moments of the residuals, rolling-window smoothing of those moment
series, and maximum-likelihood fits of the exponentiated residuals to
parametric families (Gaussian reference, Gamma, shifted log-normal).
Every fit is closed form or a short scalar iteration; no SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import glm
from .errors import DegenerateSample, InsufficientData, NoEligibleGroups
from .jsonio import check_count, write_csv, write_json

SHIFT_GRID_POINTS = 50
# Most elements per block of the shift profile, 16 MB of float64 (all 50
# shifts at once up to n = 40,000 residuals).
SHIFT_BLOCK_ELEMENTS = 1 << 21
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class GroupStats:
    """Moment summary of the residuals at one beta value."""

    beta: float
    count: int
    mean: float
    median: float
    std: float
    skewness: float
    excess_kurtosis: float


@dataclass(frozen=True)
class FamilyFit:
    name: str
    params: dict
    log_likelihood: float


@dataclass(frozen=True)
class FamilyRanking:
    """Parametric fits of the exponentiated residuals; ``ranking`` names
    them best first.  The fields are ``report.json``'s ``families`` keys,
    in order."""

    ranking: list[str]
    fits: dict[str, FamilyFit]


@dataclass(frozen=True)
class ResidualReport:
    per_beta: list[GroupStats]
    smoothed: list[GroupStats]
    dropped: list[tuple[float, int]]
    fit_beta: Optional[float]
    families: Optional[FamilyRanking]
    histogram: Optional[tuple[np.ndarray, np.ndarray]]   # (bin edges, counts)


def _group_stats(
    resid: np.ndarray, row_beta: np.ndarray, min_per_beta: int
) -> tuple[list[GroupStats], list[tuple[float, int]]]:
    """Per-beta moments, with unbiased estimators, of the residuals
    ``resid`` of rows at ``row_beta``: ``(groups, dropped)``.

    Residuals are grouped on exact beta values; groups smaller than
    ``min_per_beta`` are dropped and returned separately, as (beta, count)
    pairs, rather than diluting the moment estimates, and the retained
    groups' statistics are sorted by beta.  A moment is NaN in a group too
    small for its estimator (std below 2 rows, skewness 3, kurtosis 4).
    Raises :class:`NoEligibleGroups` when no group meets the threshold.
    """
    check_count("min_per_beta", min_per_beta, 1)
    # One stable sort splits the rows into beta groups, each in its rows'
    # original order, so every moment sums exactly what a mask would pick.
    order = np.argsort(row_beta, kind="stable")
    betas, starts = np.unique(row_beta[order], return_index=True)
    groups: list[GroupStats] = []
    dropped: list[tuple[float, int]] = []
    for beta, r in zip(betas.tolist(), np.split(resid[order], starts[1:])):
        if r.size < min_per_beta:
            dropped.append((beta, int(r.size)))
            continue
        groups.append(
            GroupStats(
                beta=beta,
                count=int(r.size),
                mean=float(r.mean()),
                median=float(np.median(r)),
                std=float(r.std(ddof=1)) if r.size >= 2 else math.nan,
                **_shape_moments(r),
            )
        )
    if not groups:
        raise NoEligibleGroups(
            f"no beta group has {min_per_beta} residuals (largest: "
            f"{max((c for _, c in dropped), default=0)})"
        )
    return groups, dropped


def _shape_moments(r: np.ndarray) -> dict[str, float]:
    """Bias-corrected sample skewness G1 and excess kurtosis G2.

    Both come from the centred moments m2, m3 and m4, as in
    ``scipy.stats.skew`` and ``scipy.stats.kurtosis`` with ``bias=False``.
    A moment is NaN in a group too small for it (G1 below 3 rows, G2
    below 4) or when m2 is at the rounding level of the mean,
    ``m2 <= (eps * mean)**2``: such a group is constant up to rounding.
    """
    n = r.size
    out = {"skewness": math.nan, "excess_kurtosis": math.nan}
    if n < 3:
        return out
    mean = float(r.mean())
    d = r - mean
    m2 = float(d @ d) / n
    if m2 <= (np.finfo(float).eps * mean) ** 2:
        return out
    z = d / math.sqrt(m2)   # standardized first: |z| <= sqrt(n), so no overflow
    z2 = z * z
    g1 = float(np.mean(z2 * z))
    out["skewness"] = math.sqrt((n - 1.0) * n) / (n - 2.0) * g1
    if n >= 4:
        g2 = float(np.mean(z2 * z2))
        out["excess_kurtosis"] = ((n + 1.0) * g2 - 3.0 * (n - 1.0)) * (n - 1.0) / ((n - 2.0) * (n - 3.0))
    return out


def rolling_smooth(series, window: int = 6) -> np.ndarray:
    """Centered moving average with symmetric edge shrinkage.

    Even widths use the classic half-weight endpoints of a centered
    even-order moving average, so a linear ramp passes through unchanged;
    near the edges the window shrinks to the largest symmetric one that
    fits.  Width 1 is the identity.
    """
    check_count("window", window, 1)
    arr = np.asarray(series, dtype=float)
    if window == 1 or arr.size == 0:
        return arr.copy()
    half = window // 2
    even = window % 2 == 0
    out = np.empty(arr.size)
    for i in range(arr.size):
        m = min(half, i, arr.size - 1 - i)
        if even and m == half:
            block = arr[i - half : i + half + 1]
            out[i] = (block.sum() - 0.5 * (block[0] + block[-1])) / window
        else:
            out[i] = arr[i - m : i + m + 1].mean()
    return out


def smooth_groups(groups: list[GroupStats], window: int = 6) -> list[GroupStats]:
    """Apply :func:`rolling_smooth` to every moment series over the beta index."""
    fields = ("mean", "median", "std", "skewness", "excess_kurtosis")
    smoothed_cols = {
        name: rolling_smooth([getattr(g, name) for g in groups], window) for name in fields
    }
    return [
        GroupStats(
            beta=g.beta,
            count=g.count,
            **{name: float(smoothed_cols[name][i]) for name in fields},
        )
        for i, g in enumerate(groups)
    ]


# Bernoulli numbers B2, B4, ..., B20.  The asymptotic series below use them
# from x = 6 up, where the first term left out is below 1e-14.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
              43867 / 798, -174611 / 330)
_DIGAMMA_SERIES = tuple(b / (2 * j) for j, b in enumerate(_BERNOULLI, 1))
_STIRLING_SERIES = tuple(b / (2 * j * (2 * j - 1)) for j, b in enumerate(_BERNOULLI, 1))
ASYMPTOTIC_MIN = 6.0


def _even_series(coefs, x: float) -> float:
    """sum_j coefs[j-1] * x**(-2j), by Horner's rule in 1/x**2."""
    w = 1.0 / (x * x)
    acc = 0.0
    for c in reversed(coefs):
        acc = acc * w + c
    return acc * w


def _gaps(k: float) -> tuple[float, float]:
    """``(ln k - psi(k), psi'(k) - 1/k)`` for k > 0.  From k = 6 up, their
    asymptotic series, sum_j B_2j / (2j k**2j) + 1/(2k) and
    sum_j B_2j / k**(2j+1) + 1/(2k**2): summed directly, they keep full
    precision where the differences of psi and psi' from ln k and 1/k
    would cancel.  Below 6, the recurrences psi(x) = psi(x + 1) - 1/x and
    psi'(x) = psi'(x + 1) + 1/x**2 carry x up to 6 first."""
    x, shift, slope_shift = k, 0.0, 0.0
    while x < ASYMPTOTIC_MIN:
        shift += 1.0 / x
        slope_shift += 1.0 / (x * x)
        x += 1.0
    gap = 0.5 / x + _even_series(_DIGAMMA_SERIES, x)
    slope_gap = (0.5 / x + _even_series(_BERNOULLI, x)) / x
    if x == k:
        return gap, slope_gap
    return math.log(k) - (math.log(x) - gap - shift), 1.0 / x + slope_gap + slope_shift - 1.0 / k


def _mean_std(e: np.ndarray) -> tuple[float, float]:
    """``e.mean()`` and ``e.std()`` of a sample of floats >= 0, also where
    the squares inside ``std`` would leave float range: one residual of 400
    among a thousand takes them there.

    A deviation from the mean is below ``2**top``, ``top`` the binary
    exponent of ``e.max()``, so the ``n`` squares sum below
    ``2**(2 top + bit_length(n))``.  Where that bound passes 2**1020, both
    moments are taken of ``e`` times ``2**-k``, the least k that brings the
    bound under, and scaled back.  A power of two scales exactly, so
    numpy's bits are kept wherever ``e`` needs no scaling, and wherever the
    scaled sample stays clear of the subnormal range.
    """
    _, top = math.frexp(float(e.max()))
    excess = 2 * top + e.size.bit_length() - 1020
    if excess <= 0:
        return float(e.mean()), float(e.std())
    k = (excess + 1) // 2
    scaled = np.ldexp(e, -k)
    return math.ldexp(float(scaled.mean()), k), math.ldexp(float(scaled.std()), k)


def _gamma_fit(e: np.ndarray, mean: float) -> FamilyFit:
    """Maximum-likelihood Gamma(shape k, scale theta) fit of a positive
    sample of the given mean, with location 0.

    The shape solves ln k - psi(k) = s, s = ln(mean e) - mean(ln e), by
    Minka's generalized Newton step on 1/k from his closed-form start
    (T. Minka, "Estimating a Gamma distribution", 2002); the scale is
    mean / k.  The iteration stops when a step is below 4 eps k or no
    shorter than the one before (rounding noise).  At the MLE the sum of
    e / theta is n k, so the log-likelihood is
    n (k ln k - k - ln Gamma(k) - k s - mean(ln e)); from k = 6 up, the
    first three terms come from Stirling's series, which does not lose
    the digits their difference would.

    Raises
    ------
    DegenerateSample
        s is not above its rounding level, 8 eps (1 + |ln mean e|): both of
        its terms are rounded to about eps (1 + |ln mean e|), so a smaller
        s is rounding noise and says nothing of the shape.
    """
    n = e.size
    log_mean = math.log(mean)
    mean_log = float(np.log(e).mean())
    s = log_mean - mean_log
    if not s > 8.0 * EPS * (1.0 + abs(log_mean)):
        raise DegenerateSample(
            f"residual spread is at the rounding level: ln(mean) - mean(ln) = {s:.3g}")
    k = (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    last_step = math.inf
    while True:
        gap, slope_gap = _gaps(k)
        # Newton on 1/k for ln k - psi(k) = s; d/dk (ln k - psi(k)) = -slope_gap.
        k_next = 1.0 / (1.0 / k - (gap - s) / (k * k * slope_gap))
        step = abs(k_next - k)
        k = k_next
        if not step > 4.0 * EPS * k or step >= last_step:
            break
        last_step = step
    if k >= ASYMPTOTIC_MIN:
        stirling = 0.5 * math.log(k / (2.0 * math.pi)) - k * _even_series(_STIRLING_SERIES, k)
    else:
        stirling = k * math.log(k) - k - math.lgamma(k)
    log_likelihood = n * (stirling - k * s - mean_log)
    return FamilyFit("gamma", {"shape": k, "scale": mean / k}, log_likelihood)


def fit_residual_families(residuals) -> FamilyRanking:
    """Maximum-likelihood fits of exp(residual) to parametric families.

    The exponentiated residuals are positive, which is where the Gamma
    and (shifted) log-normal candidates live; a Gaussian fit of the same
    sample serves as the reference.  The log-normal shift is chosen by
    profile likelihood over a fixed grid below the sample minimum;
    :func:`_shift_profile` gives each shift's moments in four passes over
    its sample.  Families are ranked by total log-likelihood.

    Raises
    ------
    InsufficientData
        Fewer than 100 residuals.
    DegenerateSample
        A spread at the rounding level (see :func:`_gamma_fit`); a
        zero-variance sample is one.
    """
    res = np.asarray(residuals, dtype=float)
    if res.size < 100:
        raise InsufficientData(f"family fitting needs >= 100 residuals, got {res.size}")
    if not np.all(np.isfinite(res)):
        raise ValueError("residuals must be finite")
    e = np.exp(res)
    n = e.size
    mean, sigma = _mean_std(e)
    gamma = _gamma_fit(e, mean)

    # At the MLE the squared deviations sum to n sigma^2.
    gauss_ll = -n * (math.log(sigma) + 0.5 * (1.0 + math.log(2.0 * math.pi)))
    gaussian = FamilyFit("gaussian", {"mean": mean, "std": sigma}, gauss_ll)

    # Profile likelihood over a shift grid below the sample minimum.
    e_min = float(e.min())
    shifts = np.linspace(e_min - 2.0 * sigma, e_min, SHIFT_GRID_POINTS, endpoint=False)
    mu, sig, t_sum, t_ss = _shift_profile(e, shifts)
    best_shift, best_ll, best_mu, best_sig = None, -math.inf, None, None
    for shift, m, s, ts, ss in zip(shifts.tolist(), mu.tolist(), sig.tolist(),
                                   t_sum.tolist(), t_ss.tolist()):
        if s == 0.0:
            continue
        # log-normal log-likelihood of (e - shift) with parameters (m, s)
        ll = -n * math.log(s) - 0.5 * n * math.log(2.0 * math.pi) - ts - 0.5 * ss / s**2
        if ll > best_ll:  # the first maximum; NaN never wins
            best_shift, best_ll, best_mu, best_sig = shift, ll, m, s
    if best_shift is None:
        raise DegenerateSample("shifted log-normal profile likelihood is degenerate")
    shifted = FamilyFit(
        "shifted_lognormal",
        {"shift": best_shift, "mu": best_mu, "sigma": best_sig},
        best_ll,
    )

    fits = {f.name: f for f in (shifted, gamma, gaussian)}
    ranking = sorted(fits, key=lambda name: fits[name].log_likelihood, reverse=True)
    return FamilyRanking(ranking=ranking, fits=fits)


def _shift_profile(e: np.ndarray, shifts: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(mu, sig, sum, ss)`` of t = ln(e - shift) for each shift: its mean,
    standard deviation (ddof 0), sum and centred sum of squares.

    Each shift's t is a row of a (shifts, n) block, which is walked once
    for the sums and once each to centre, square and sum it.  sum / n and
    sqrt(ss / n) are the operations ``t.mean(axis=1)`` and
    ``t.std(axis=1)`` make, so mu and sig carry their bits.
    """
    n = e.size
    t_sum, t_ss = np.empty(shifts.size), np.empty(shifts.size)
    step = max(1, SHIFT_BLOCK_ELEMENTS // n)
    for lo in range(0, shifts.size, step):
        rows = slice(lo, lo + step)
        t = np.log(e - shifts[rows, None])
        t_sum[rows] = t.sum(axis=1)
        t -= (t_sum[rows] / n)[:, None]
        np.square(t, out=t)
        t_ss[rows] = t.sum(axis=1)
    return t_sum / n, np.sqrt(t_ss / n), t_sum, t_ss


def histogram_fd(values) -> tuple[np.ndarray, np.ndarray]:
    """Histogram with Freedman-Diaconis bin widths, at most one bin per
    value; returns (edges, counts).

    The FD width scales with the interquartile range, so a tight sample with
    one far outlier asks for range / width bins, billions of them; a sample
    that would get more bins than values gets as many equal bins as values.
    Otherwise the bin count is numpy's own for ``bins="fd"``,
    ceil(range / width), or 1 when the width is 0; it is passed to numpy
    as a number, so the quartiles are computed once.
    """
    arr = np.asarray(values, dtype=float)
    width = 2.0 * np.subtract(*np.percentile(arr, [75, 25])) * arr.size ** (-1.0 / 3.0)
    span = np.ptp(arr)
    if span > arr.size * width > 0:
        bins = arr.size
    else:
        bins = int(np.ceil(span / width)) if width else 1
    edges = np.histogram_bin_edges(arr, bins=bins)
    counts, edges = np.histogram(arr, bins=edges)
    return edges, counts


def residual_report(
    fit: glm.GlmFit,
    data: glm.LogDataset,
    min_per_beta: int = 1000,
    window: int = 6,
    fit_beta: Optional[float] = None,
) -> ResidualReport:
    """Full diagnostic report: moments, smoothed series and family fits.

    ``fit_beta`` selects the beta slice whose residuals feed the family
    fits and histogram; by default the largest retained group is used.
    Family fitting is skipped (with the slot left empty) when the slice
    is too small or degenerate.
    """
    resid = data.y - data.x @ fit.coef_hat
    groups, dropped = _group_stats(resid, data.beta, min_per_beta)
    smoothed = smooth_groups(groups, window)

    if fit_beta is None:
        target = max(groups, key=lambda g: (g.count, -g.beta)).beta
    else:
        target = float(fit_beta)
        if not any(g.beta == target for g in groups):
            raise NoEligibleGroups(f"no retained group at beta = {target}")
    slice_resid = resid[data.beta == target]

    families = None
    histogram = None
    try:
        families = fit_residual_families(slice_resid)
        histogram = histogram_fd(np.exp(slice_resid))
    except (InsufficientData, DegenerateSample):
        pass
    return ResidualReport(
        per_beta=groups,
        smoothed=smoothed,
        dropped=dropped,
        fit_beta=target,
        families=families,
        histogram=histogram,
    )


# ---------------------------------------------------------------------------
# Export


def save_report_json(report: ResidualReport, path) -> None:
    """Write the report as strict JSON: an undefined moment (a group too
    small for it) is written as ``null``."""
    write_json(path, {
        "per_beta": report.per_beta,
        "smoothed": report.smoothed,
        "dropped": [{"beta": b, "count": c} for b, c in report.dropped],
        "fit_beta": report.fit_beta,
        "families": report.families,
    })


def save_groups_csv(report: ResidualReport, path) -> None:
    """Raw and smoothed moment series, one row per retained beta group."""
    stat_names = ("mean", "median", "std", "skewness", "excess_kurtosis")
    write_csv(
        path,
        ["beta", "count", *stat_names, *(f"smoothed_{name}" for name in stat_names)],
        ([raw.beta, raw.count]
         + [getattr(raw, name) for name in stat_names]
         + [getattr(smooth, name) for name in stat_names]
         for raw, smooth in zip(report.per_beta, report.smoothed)),
    )


def save_histogram_csv(report: ResidualReport, path) -> None:
    if report.histogram is None:
        raise ValueError("report has no histogram (family fitting was skipped)")
    edges, counts = report.histogram
    write_csv(path, ["bin_left", "bin_right", "count"],
              [(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist())])
