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

For the BO record's array pass: :func:`sample_posterior`, :func:`fit`
and :func:`cholesky_2x2` are ``glm``'s functions in their earlier forms,
with a fresh array per step; :func:`thompson_batch` clamps one proposal
at a time through ``acquisition.clamp_log_float``; :func:`draw_per_beta`
is the draw loop of one scalar statistic call per beta.  ``install``
puts them back too.  :func:`is_number` and :func:`count_ok` are the
``jsonio`` rules through the ``numbers`` ABCs alone.

For ``scalebo diagnose``: :func:`load_csv` parses a copy of the dataset's
body, :func:`mean_std` is a sample's ``mean`` and ``std``,
:func:`shift_profile` reads each shift's moments through numpy's
``mean``, ``std`` and ``sum``, and :func:`histogram_fd` bins through
``bins="fd"``.  ``install_diagnose`` puts them back into the package.

For the JSON artifacts: :func:`json_safe` is a document as the standard
library's JSON values, so ``json.dumps(json_safe(doc), indent=2)`` is the
text that ``jsonio.dumps`` must give.

The tests' shared helpers: :func:`calibrated_problem` is the calibrated
synthetic law (optimum at beta = 101 unless moved), :func:`strict_json`
parses an artifact under a strict reader, :func:`scrub_clocks` is a trace's
JSON without its wall clocks, and :func:`fit_from` builds a fit from a
Cholesky root.  :func:`sample_laws` is the law-space sweep's fixed sample
of generating laws (``tests/sweep.py``).
"""

import csv
import dataclasses
import io
import json
import math
import numbers

import numpy as np

from scalebo import acquisition, diagnostics, driver, glm, posterior, problems
from scalebo.errors import (DegenerateVariance, InsufficientData, RankDeficient,
                            SurrogateOverflow)
from scalebo.jsonio import check_bounds, check_count


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
        return posterior.PosteriorSummary(q025=pe, q500=pe, q975=pe, p_a_positive=p_a_positive)
    a, ln_b, eps2 = glm.sample_posterior(fit, posterior.SUMMARY_DRAWS, rng)
    values, _ = clamp_log(acquisition.log_argmin(a, ln_b, eps2, s0), bounds)
    q025, q500, q975 = linear_quantiles(values, [0.025, 0.5, 0.975])
    return posterior.PosteriorSummary(q025=float(q025), q500=float(q500), q975=float(q975),
                                      p_a_positive=p_a_positive)


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


def sample_posterior(fit, count, rng):
    """``glm.sample_posterior`` as a fresh array per step, the coefficients
    as one ``(count, 2)`` block shifted by ``coef_hat``."""
    check_count("count", count, 1)
    if fit.s2 <= 0.0:
        raise DegenerateVariance("residual variance is zero; posterior over eps2 collapses")
    chi2 = rng.gamma(shape=0.5 * fit.dof, scale=2.0, size=count)
    eps2 = fit.dof * fit.s2 / chi2
    z = rng.standard_normal((count, glm.NUM_COEF))
    coefs = fit.coef_hat + np.sqrt(eps2)[:, None] * (z @ fit.cholesky.T)
    return coefs[:, 0], coefs[:, 1], eps2


def cholesky_2x2(v):
    """``glm._cholesky_2x2`` reading the matrix's entries one index at a time."""
    l00 = math.sqrt(v[0, 0]) if v[0, 0] > 0.0 else math.nan
    l10 = float(v[1, 0]) / l00
    d11 = float(v[1, 1]) - l10 * l10
    if not d11 > 0.0:
        raise np.linalg.LinAlgError("v_theta is not positive definite")
    return np.array([[l00, 0.0], [l10, math.sqrt(d11)]])


def fit(data):
    """``glm.fit`` through ``ndarray.sum``, a fresh residual array and
    ``V_theta`` divided by Sxx as an array."""
    n = data.n
    if n < glm.NUM_COEF + 1:
        raise InsufficientData(f"need at least {glm.NUM_COEF + 1} rows, got {n}")
    x, y = np.log(data.beta), np.log(data.s)
    x_bar, y_bar = float(x.sum()) / n, float(y.sum()) / n
    xc, yc = x - x_bar, y - y_bar
    sxx = float(xc @ xc)
    r_diag = (float(x @ x), math.sqrt(n * sxx))
    if min(r_diag) <= glm.RANK_RTOL * max(r_diag):
        raise RankDeficient("design matrix is rank deficient: beta values are all equal")
    a = float(xc @ yc) / sxx
    resid = yc - a * xc
    dof = n - glm.NUM_COEF
    v_theta = np.array([[1.0, -x_bar], [-x_bar, sxx / n + x_bar * x_bar]]) / sxx
    try:
        cholesky_2x2(v_theta)
    except np.linalg.LinAlgError:
        raise RankDeficient(
            "beta values are too tightly clustered: the posterior covariance of "
            "the coefficients is not positive definite in floating point"
        ) from None
    return glm.GlmFit(coef_hat=np.array([a, y_bar - a * x_bar]),
                      s2=float(resid @ resid) / dof, v_theta=v_theta, dof=dof)


def thompson_batch(fit, s0, batch_size, bounds, rng):
    """``acquisition.thompson_batch`` through one ``clamp_log_float`` call
    per proposal."""
    check_count("batch_size", batch_size, 1)
    check_bounds(bounds)
    ln_star = acquisition.log_argmin(*glm.sample_posterior(fit, batch_size, rng), s0)
    ln_lo, ln_hi = math.log(bounds[0]), math.log(bounds[1])
    return acquisition.ThompsonBatch(
        betas=[acquisition.clamp_log_float(x, bounds) for x in ln_star.tolist()],
        clamped_count=sum(x < ln_lo or x > ln_hi for x in ln_star.tolist()))


def draw_per_beta(problem, betas, rng):
    """The statistic at each of ``betas`` by one scalar call each, in turn."""
    return [float(problem.evaluate_statistic(beta, rng)) for beta in betas]


def is_number(value):
    """``jsonio.is_number`` through the ``numbers.Real`` ABC alone."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def count_ok(value, minimum):
    """Whether ``jsonio.check_count`` takes ``value``, through the
    ``numbers.Integral`` ABC alone."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= minimum


def install(monkeypatch):
    """Run the package on the oracles: each record's helpers, the clamp,
    the ingest of every row drawn so far, the fit, posterior sampling with
    a Cholesky factor computed at every draw, the Thompson batch clamped
    per proposal and one scalar statistic call per beta."""
    monkeypatch.setattr(acquisition, "clamp_log_float", clamp_log_float)
    monkeypatch.setattr(acquisition, "thompson_batch", thompson_batch)
    monkeypatch.setattr(posterior, "point_estimate", point_estimate)
    monkeypatch.setattr(posterior, "summarize", posterior_summary)
    monkeypatch.setattr(posterior, "stop_reading", stop_reading)
    monkeypatch.setattr(glm, "ingest", ingest)
    monkeypatch.setattr(glm, "fit", fit)
    monkeypatch.setattr(glm, "sample_posterior", sample_posterior)
    monkeypatch.setattr(glm.GlmFit, "cholesky", property(lambda fit: cholesky_2x2(fit.v_theta)))
    monkeypatch.setattr(problems.ObjectiveProblem, "_takes_batch", property(lambda _: False))


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


def json_safe(doc):
    """``doc`` as JSON values, with every non-finite float replaced by ``None``.

    Dicts, lists, tuples and dataclass instances (their fields, in order)
    are walked; an ndarray or a numpy scalar is its ``tolist()`` (for a
    scalar, the plain Python number).  Other values pass through.
    """
    if isinstance(doc, float):
        return doc if math.isfinite(doc) else None
    if doc is None or isinstance(doc, (str, int)):   # bool is an int
        return doc
    if isinstance(doc, dict):
        return {key: json_safe(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [json_safe(value) for value in doc]
    if hasattr(type(doc), "__dataclass_fields__"):   # an instance, not a dataclass type
        return {field.name: json_safe(getattr(doc, field.name))
                for field in dataclasses.fields(doc)}
    if isinstance(doc, (np.ndarray, np.generic)):
        return json_safe(doc.tolist())
    return doc


# ---------------------------------------------------------------------------
# Shared test helpers


def calibrated_problem(beta_opt=101.0, a=-0.58, ln_b=0.0, eps2=0.25):
    s0 = problems.target_for_optimum(a, ln_b, eps2, beta_opt)
    return problems.synthetic_powerlaw(a, ln_b, eps2, s0)


def strict_json(path):
    """Parse ``path`` refusing the non-standard NaN/Infinity tokens."""

    def refuse(token):
        raise ValueError(f"{path} holds the non-JSON token {token}")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)


def scrub_clocks(trace):
    """Trace dict with wall-clock fields removed (they never reproduce)."""
    doc = driver.trace_to_json_dict(trace)
    doc.pop("wall_clock_seconds")
    for item in doc["iterations"]:
        item.pop("wall_clock")
    return doc


def fit_from(a, ln_b, s2, root, dof):
    """A fit whose v_theta is ``root @ root.T`` for a lower-triangular
    ``root = (l00, l10, l11)``."""
    l00, l10, l11 = root
    v_theta = np.array([[l00 * l00, l00 * l10], [l00 * l10, l10 * l10 + l11 * l11]])
    return glm.GlmFit(coef_hat=np.array([a, ln_b]), s2=s2, v_theta=v_theta, dof=dof)


# ---------------------------------------------------------------------------
# The law-space sweep's sample, fixed before any run


SWEEP_SEED = 20261021


def sample_laws(count, seed=SWEEP_SEED):
    """``count`` generating laws ``(a, eps2, beta_opt)`` with ``ln_b = 0``:
    a = -U(0.05, 1.5) with the sign flipped in a fifth of the laws, eps2
    log-uniform on [0.01, 4] and beta_opt log-uniform on [3, 3000]."""
    rng = np.random.default_rng(seed)
    a = -rng.uniform(0.05, 1.5, count)
    a[rng.permutation(count)[:count // 5]] *= -1.0
    eps2 = np.exp(rng.uniform(math.log(0.01), math.log(4.0), count))
    beta_opt = np.exp(rng.uniform(math.log(3.0), math.log(3000.0), count))
    return list(zip(a.tolist(), eps2.tolist(), beta_opt.tolist()))
