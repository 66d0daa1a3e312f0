"""Reference versions of the BO record's helpers and of the static fixture.

``driver.run`` computes each record's point estimate, beta* summary and
stop region through ``posterior``, on floats and order statistics, and
ingests its rows through ``glm``'s array pass.  The functions below are the
straightforward array forms those replace, kept as test oracles: each must
give the same bits as the code it stands for.  :func:`clamp_log`, the array
clamp through ``np.clip``, is the reference for
``acquisition.clamp_log_float``.  ``install`` puts them back into the
package, so whole runs can be compared as well.
``qr_sine_basis`` and ``solve_fixed_ends`` build the static fixture's
basis and solutions through LAPACK, as ``problems.build_static_fixture``
once did, for its closed form to be checked against.
:func:`srom_statistic` is ``problems.srom_standin``'s statistic written
as its formula, with the temporaries the package's version saves.
:func:`probe_moments` is the mean and standard error of a Monte-Carlo
probe through numpy's ``mean`` and ``std``, the reference for
``baselines._moments``.

For ``scalebo diagnose``: :func:`load_csv` parses a copy of the dataset's
body, :func:`mean_std` is a sample's ``mean`` and ``std``,
:func:`shift_profile` reads each shift's moments through numpy's
``mean``, ``std`` and ``sum``, and :func:`histogram_fd` bins through
``bins="fd"``.  ``install_diagnose`` puts them back into the package.
"""

import csv
import io
import math

import numpy as np

from scalebo import acquisition, diagnostics, glm, posterior, problems
from scalebo.errors import SurrogateOverflow


def clamp_log(ln_beta, bounds):
    """``(beta, clamped)``: ``acquisition.clamp_log_float`` elementwise,
    through ``np.clip``, and whether each entry lies outside the log
    bounds."""
    beta_min, beta_max = bounds
    ln_lo, ln_hi = math.log(beta_min), math.log(beta_max)
    ln_beta = np.asarray(ln_beta, dtype=float)
    below, above = ln_beta < ln_lo, ln_beta > ln_hi
    inside = np.clip(np.exp(np.clip(ln_beta, ln_lo, ln_hi)), beta_min, beta_max)
    return np.where(below, beta_min, np.where(above, beta_max, inside)), below | above


def clamp_log_float(ln_beta, bounds):
    """``acquisition.clamp_log_float`` through :func:`clamp_log`."""
    return float(clamp_log([ln_beta], bounds)[0][0])


def linear_quantiles(values, probs):
    """``np.quantile(values, probs)`` bit for bit (method ``linear``), from one sort."""
    ordered = np.sort(values)
    virtual = (ordered.size - 1) * np.asarray(probs, dtype=float)
    lo = np.floor(virtual).astype(np.intp)
    t = virtual - lo
    below, above = ordered[lo], ordered[np.minimum(lo + 1, ordered.size - 1)]
    diff = above - below
    return np.where(t >= 0.5, above - diff * (1 - t), below + diff * t)


def point_estimate(fit, s0, bounds):
    ln_star = acquisition.log_argmin(fit.a_hat, fit.ln_b_hat, fit.s2, s0)
    beta, _ = clamp_log(ln_star, bounds)
    return float(beta)


def posterior_summary(fit, s0, bounds, rng):
    """Every draw of ln beta* clamped and exponentiated, then the quantiles.
    P(a > 0 | data) is ``posterior.p_a_positive``'s: the oracle stands in
    for the quantiles only."""
    p_a_positive = posterior.p_a_positive(fit)
    if fit.s2 <= 0.0:
        pe = point_estimate(fit, s0, bounds)
        return posterior.PosteriorSummary(q025=pe, q500=pe, q975=pe, draws=0,
                                          p_a_positive=p_a_positive)
    a, ln_b, eps2 = glm.sample_posterior(fit, posterior.SUMMARY_DRAWS, rng)
    values, _ = clamp_log(acquisition.log_argmin(a, ln_b, eps2, s0), bounds)
    q025, q500, q975 = linear_quantiles(values, [0.025, 0.5, 0.975])
    return posterior.PosteriorSummary(q025=float(q025), q500=float(q500), q975=float(q975),
                                      draws=int(values.size), p_a_positive=p_a_positive)


def optimal_region_from(a, ln_b, eps2, s0, rel, bounds):
    """``acquisition.optimal_region_from`` with bounds, through 0-d and
    2-element arrays."""
    ln_star = float(acquisition.log_argmin(a, ln_b, eps2, s0))
    if not math.isfinite(ln_star):
        raise SurrogateOverflow(f"argmin exp({ln_star:g}) is not representable")
    ln_min = min(max(ln_star, math.log(bounds[0])), math.log(bounds[1]))
    u_min = math.exp(a * (ln_min - ln_star))
    du = math.sqrt((1.0 + rel) * (u_min - 1.0) ** 2 + rel * math.expm1(eps2))
    edges = (
        ln_star + math.log1p(du) / a,
        ln_star + math.log1p(-du) / a if du < 1.0 else -math.copysign(math.inf, a),
    )
    lo_edge, hi_edge = clamp_log([min(edges), max(edges)], bounds)[0]
    return float(lo_edge), float(hi_edge)


def settled(fit, summary, s0, bounds):
    if not summary.a_identified:
        return False
    lo, hi = optimal_region_from(fit.a_hat, fit.ln_b_hat, fit.s2, s0,
                                 posterior.STOP_REGION_REL, bounds)
    return lo <= summary.q025 and summary.q975 <= hi


def stop_reading(fit, summary, s0, bounds):
    """``posterior.stop_reading`` through :func:`optimal_region_from` and
    the two halves of the interval as one array."""
    if not summary.a_identified:
        return False, 0.0
    lo, hi = optimal_region_from(fit.a_hat, fit.ln_b_hat, fit.s2, s0,
                                 posterior.STOP_REGION_REL, bounds)
    if lo <= summary.q025 and summary.q975 <= hi:
        return True, 0.0
    if not lo <= summary.q500 <= hi:
        return False, 0.0
    ln_mid = np.log(summary.q500)
    gaps = np.abs(np.log([lo, hi]) - ln_mid)
    halves = np.abs(np.log([summary.q025, summary.q975]) - ln_mid)
    with np.errstate(divide="ignore", invalid="ignore"):
        room = float(np.min(np.where(halves > 0, gaps / halves, np.inf)))
    n = fit.dof + 2
    return False, float(n / np.float64(room) ** 2 - n) if room > 0 else math.inf


def ingest(points):
    """``glm.ingest`` through a tuple per row, whatever ``points`` is."""
    rows = np.array([(float(beta), float(s)) for beta, s in points], dtype=float)
    beta, s = rows.reshape(-1, 2).T
    keep = np.isfinite(beta) & np.isfinite(s) & (beta > 0) & (s > 0)
    return glm.LogDataset(beta[keep], s[keep]), int(beta.size - np.count_nonzero(keep))


def install(monkeypatch):
    """Run the package on the oracles: each record's helpers, the clamp,
    the ingest of every row drawn so far and a Cholesky factor computed at
    every draw."""
    monkeypatch.setattr(acquisition, "clamp_log_float", clamp_log_float)
    monkeypatch.setattr(posterior, "point_estimate", point_estimate)
    monkeypatch.setattr(posterior, "summarize", posterior_summary)
    monkeypatch.setattr(posterior, "stop_reading", stop_reading)
    monkeypatch.setattr(glm, "ingest", ingest)
    monkeypatch.setattr(glm.GlmFit, "cholesky",
                        property(lambda fit: glm._cholesky_2x2(fit.v_theta)))


def qr_sine_basis(n):
    """The Q factor of the sine matrix ``P[j, k] = sin(k pi j/(n-1))``,
    j = 0..n-1, k = 1..n, through LAPACK's QR; column signs as LAPACK
    leaves them."""
    j = np.arange(n, dtype=float)[:, None]
    k = np.arange(1, n + 1, dtype=float)[None, :]
    q, _ = np.linalg.qr(np.sin(k * np.pi * j / (n - 1)))
    return q


def solve_fixed_ends(k_mat, force):
    """Solve K x = f with x[0] = x[-1] = 0 by eliminating the end DoFs."""
    n = k_mat.shape[0]
    x = np.zeros(n)
    x[1:n - 1] = np.linalg.solve(k_mat[1:n - 1, 1:n - 1], force[1:n - 1])
    return x


def srom_statistic(beta, rng):
    """``||A q - x_rom||`` on the perturbed basis ``A = V + G / sqrt(beta)``,
    ``q`` the Galerkin coordinates, all in the stiffness eigenbasis."""
    modal = problems._modal_system()
    lam, f_hdm, x_rom = modal["eigvals"], modal["f_hdm"], modal["x_rom"]
    n, m = lam.size, problems.ROM_DIM
    basis = np.eye(n, m) + rng.standard_normal((n, m)) / math.sqrt(beta)
    reduced = (basis * lam[:, None]).T @ basis
    q = np.linalg.solve(reduced, basis.T @ f_hdm)
    return float(np.linalg.norm(basis @ q - x_rom))


def probe_moments(g):
    """``(mean, se)`` of ``g`` through ``ndarray.mean`` and
    ``ndarray.std(ddof=1) / sqrt(n)``; se is 0.0 at n = 1."""
    se = float(g.std(ddof=1) / math.sqrt(g.size)) if g.size > 1 else 0.0
    return float(g.mean()), se


def load_csv(path):
    """``glm.load_csv`` through a string copy of the body after the header."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = next(csv.reader([fh.readline()]), None)
        if header is None or [h.strip() for h in header[:2]] != ["beta", "s"]:
            raise ValueError(f"{path}: expected header 'beta,s'")
        body = fh.read()
    if not body.strip("\r\n"):
        return glm._keep_usable(np.empty((0, 2)))
    rows = np.loadtxt(io.StringIO(body, newline=""), delimiter=",", usecols=(0, 1), ndmin=2,
                      comments=None, quotechar='"')
    return glm._keep_usable(rows)


def mean_std(e):
    """``diagnostics._mean_std`` as numpy's ``mean`` and ``std``, which
    overflow where the squared deviations leave float range."""
    return float(e.mean()), float(e.std())


def shift_profile(e, shifts):
    """``diagnostics._shift_profile`` through ``mean``, ``std`` and ``sum``
    of each (shifts, n) block, and the squares of ``t - mean`` summed."""
    mu, sig, t_sum, t_ss = (np.empty(shifts.size) for _ in range(4))
    step = max(1, diagnostics.SHIFT_BLOCK_ELEMENTS // e.size)
    for lo in range(0, shifts.size, step):
        rows = slice(lo, lo + step)
        t = np.log(e - shifts[rows, None])
        mu[rows], sig[rows], t_sum[rows] = t.mean(axis=1), t.std(axis=1), t.sum(axis=1)
        t_ss[rows] = np.sum((t - mu[rows, None]) ** 2, axis=1)
    return mu, sig, t_sum, t_ss


def histogram_fd(values):
    """``diagnostics.histogram_fd`` through numpy's ``bins="fd"``, with
    the one-bin-per-value cap."""
    arr = np.asarray(values, dtype=float)
    width = 2.0 * np.subtract(*np.percentile(arr, [75, 25])) * arr.size ** (-1.0 / 3.0)
    capped = np.ptp(arr) > arr.size * width > 0
    edges = np.histogram_bin_edges(arr, bins=arr.size if capped else "fd")
    counts, edges = np.histogram(arr, bins=edges)
    return edges, counts


def install_diagnose(monkeypatch):
    """Run ``diagnose`` on the oracles: the dataset parse, the shift
    profile and the histogram."""
    monkeypatch.setattr(glm, "load_csv", load_csv)
    monkeypatch.setattr(diagnostics, "_shift_profile", shift_profile)
    monkeypatch.setattr(diagnostics, "histogram_fd", histogram_fd)
