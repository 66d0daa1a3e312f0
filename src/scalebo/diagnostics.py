"""Residual-model diagnostics for the log-log fit.

The surrogate assumes stationary Gaussian noise in log space.  These
helpers quantify how well that holds on real data: per-beta conditional
moments of the residuals, rolling-window smoothing of those moment
series, and maximum-likelihood fits of the exponentiated residuals to
parametric families (Gaussian reference, Gamma, shifted log-normal).
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np
import scipy.stats

from . import glm
from .errors import DegenerateSample, InsufficientData, NoEligibleGroups
from .jsonio import json_safe, write_json

SHIFT_GRID_POINTS = 50


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
    """Parametric fits of the exponentiated residuals, best first."""

    fits: dict[str, FamilyFit]
    ranking: list[str]

    def __getitem__(self, name: str) -> FamilyFit:
        return self.fits[name]


@dataclass(frozen=True)
class ResidualReport:
    per_beta: list[GroupStats]
    smoothed: list[GroupStats]
    dropped: list[tuple[float, int]]
    fit_beta: Optional[float]
    families: Optional[FamilyRanking]
    histogram: Optional[tuple[np.ndarray, np.ndarray]]   # (bin edges, counts)


def residual_stats(
    fit: glm.GlmFit, data: glm.LogDataset, min_per_beta: int = 1000
) -> tuple[list[GroupStats], list[tuple[float, int]]]:
    """Per-beta residual moments with unbiased estimators.

    Residuals are grouped on exact beta values; groups smaller than
    ``min_per_beta`` are dropped and returned separately rather than
    diluting the moment estimates.  A moment is NaN in a group too small
    for its estimator (std below 2 rows, skewness 3, kurtosis 4).

    Returns
    -------
    (groups, dropped)
        Retained group statistics sorted by beta, and (beta, count) pairs
        of the dropped groups.

    Raises
    ------
    NoEligibleGroups
        No group meets the threshold.
    """
    if min_per_beta < 1:
        raise ValueError("min_per_beta must be >= 1")
    resid = data.y - data.x @ fit.coef_hat
    groups: list[GroupStats] = []
    dropped: list[tuple[float, int]] = []
    for beta in np.unique(data.beta):
        r = resid[data.beta == beta]
        if r.size < min_per_beta:
            dropped.append((float(beta), int(r.size)))
            continue
        groups.append(
            GroupStats(
                beta=float(beta),
                count=int(r.size),
                mean=float(r.mean()),
                median=float(np.median(r)),
                std=float(r.std(ddof=1)) if r.size >= 2 else math.nan,
                skewness=float(scipy.stats.skew(r, bias=False)) if r.size >= 3 else math.nan,
                excess_kurtosis=float(scipy.stats.kurtosis(r, bias=False)) if r.size >= 4 else math.nan,
            )
        )
    if not groups:
        raise NoEligibleGroups(
            f"no beta group has {min_per_beta} residuals (largest: "
            f"{max((c for _, c in dropped), default=0)})"
        )
    return groups, dropped


def rolling_smooth(series, window: int = 6) -> np.ndarray:
    """Centered moving average with symmetric edge shrinkage.

    Even widths use the classic half-weight endpoints of a centered
    even-order moving average, so a linear ramp passes through unchanged;
    near the edges the window shrinks to the largest symmetric one that
    fits.  Width 1 is the identity.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
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


def fit_residual_families(residuals) -> FamilyRanking:
    """Maximum-likelihood fits of exp(residual) to parametric families.

    The exponentiated residuals are positive, which is where the Gamma
    and (shifted) log-normal candidates live; a Gaussian fit of the same
    sample serves as the reference.  The log-normal shift is chosen by
    profile likelihood over a fixed grid below the sample minimum.
    Families are ranked by total log-likelihood.

    Raises
    ------
    InsufficientData
        Fewer than 100 residuals.
    DegenerateSample
        Zero-variance sample.
    """
    res = np.asarray(residuals, dtype=float)
    if res.size < 100:
        raise InsufficientData(f"family fitting needs >= 100 residuals, got {res.size}")
    if not np.all(np.isfinite(res)):
        raise ValueError("residuals must be finite")
    if res.std() == 0.0:
        raise DegenerateSample("residual sample has zero variance")
    e = np.exp(res)
    n = e.size

    mean, sigma = float(e.mean()), float(e.std())
    gauss_ll = float(np.sum(scipy.stats.norm.logpdf(e, loc=mean, scale=sigma)))
    gaussian = FamilyFit("gaussian", {"mean": mean, "std": sigma}, gauss_ll)

    shape, _, scale = scipy.stats.gamma.fit(e, floc=0.0)
    gamma_ll = float(np.sum(scipy.stats.gamma.logpdf(e, shape, loc=0.0, scale=scale)))
    gamma = FamilyFit("gamma", {"shape": float(shape), "scale": float(scale)}, gamma_ll)

    e_min, e_std = float(e.min()), float(e.std())
    best_shift, best_ll, best_mu, best_sig = None, -math.inf, None, None
    for shift in np.linspace(e_min - 2.0 * e_std, e_min, SHIFT_GRID_POINTS, endpoint=False):
        t = np.log(e - shift)
        mu, sig = float(t.mean()), float(t.std())
        if sig == 0.0:
            continue
        # log-normal log-likelihood of (e - shift) with parameters (mu, sig)
        ll = float(-n * math.log(sig) - 0.5 * n * math.log(2.0 * math.pi)
                   - t.sum() - 0.5 * np.sum((t - mu) ** 2) / sig**2)
        if ll > best_ll:
            best_shift, best_ll, best_mu, best_sig = float(shift), ll, mu, sig
    if best_shift is None:
        raise DegenerateSample("shifted log-normal profile likelihood is degenerate")
    shifted = FamilyFit(
        "shifted_lognormal",
        {"shift": best_shift, "mu": best_mu, "sigma": best_sig},
        best_ll,
    )

    fits = {f.name: f for f in (shifted, gamma, gaussian)}
    ranking = sorted(fits, key=lambda name: fits[name].log_likelihood, reverse=True)
    return FamilyRanking(fits=fits, ranking=ranking)


def histogram_fd(values) -> tuple[np.ndarray, np.ndarray]:
    """Histogram with Freedman-Diaconis bin widths; returns (edges, counts)."""
    arr = np.asarray(values, dtype=float)
    edges = np.histogram_bin_edges(arr, bins="fd")
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
    groups, dropped = residual_stats(fit, data, min_per_beta)
    smoothed = smooth_groups(groups, window)

    if fit_beta is None:
        target = max(groups, key=lambda g: (g.count, -g.beta)).beta
    else:
        target = float(fit_beta)
        if not any(g.beta == target for g in groups):
            raise NoEligibleGroups(f"no retained group at beta = {target}")
    resid = data.y - data.x @ fit.coef_hat
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


def report_to_json_dict(report: ResidualReport) -> dict:
    """The report as strict JSON values: an undefined moment (a group too
    small for it) becomes ``None``."""
    doc = {
        "per_beta": [asdict(g) for g in report.per_beta],
        "smoothed": [asdict(g) for g in report.smoothed],
        "dropped": [{"beta": b, "count": c} for b, c in report.dropped],
        "fit_beta": report.fit_beta,
        "families": None,
    }
    if report.families is not None:
        doc["families"] = {
            "ranking": report.families.ranking,
            "fits": {name: asdict(f) for name, f in report.families.fits.items()},
        }
    return json_safe(doc)


def save_report_json(report: ResidualReport, path) -> None:
    write_json(path, report_to_json_dict(report))


def save_groups_csv(report: ResidualReport, path) -> None:
    """Raw and smoothed moment series, one row per retained beta group."""
    stat_names = ("mean", "median", "std", "skewness", "excess_kurtosis")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["beta", "count"]
            + list(stat_names)
            + [f"smoothed_{name}" for name in stat_names]
        )
        for raw, smooth in zip(report.per_beta, report.smoothed):
            writer.writerow(
                [repr(raw.beta), raw.count]
                + [repr(getattr(raw, name)) for name in stat_names]
                + [repr(getattr(smooth, name)) for name in stat_names]
            )


def save_histogram_csv(report: ResidualReport, path) -> None:
    if report.histogram is None:
        raise ValueError("report has no histogram (family fitting was skipped)")
    edges, counts = report.histogram
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["bin_left", "bin_right", "count"])
        for left, right, count in zip(edges[:-1], edges[1:], counts):
            writer.writerow([repr(float(left)), repr(float(right)), int(count)])
