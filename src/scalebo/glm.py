"""Conjugate Bayesian linear model for log-log power-law data.

The statistic ``s`` of a stochastic simulator at scale value ``beta`` is
modelled as

    ln s = a * ln(beta) + ln_b + eps * z,    z ~ N(0, 1),

a linear model in x = (ln beta, 1) with unknown coefficients
theta = (a, ln_b) and noise variance eps^2.  Under the standard
noninformative prior p(theta, eps^2) ~ 1/eps^2 the posterior is conjugate:

    eps^2 | D     ~  scaled-Inv-chi2(n - 2, s2)
    theta | eps^2 ~  N(theta_hat, eps^2 * V_theta)

with theta_hat the least-squares estimate, s2 the classical residual
variance and V_theta = (X^T X)^{-1}, all closed forms in the centered sums
of ln beta and ln s.  This module holds the dataset container, the
classical fit and exact posterior sampling.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateVariance, InsufficientData, RankDeficient
from .jsonio import check_count, write_csv

# Number of regression coefficients: slope on ln(beta) plus intercept.
NUM_COEF = 2

# Relative threshold on the diagonal of the design's QR factor below which
# the design is treated as rank deficient (beta values numerically identical).
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class LogDataset:
    """Paired (beta, s) observations with log-domain design semantics.

    Rows are stored in their raw positive form; the design matrix
    ``x = [ln beta, 1]`` and response ``y = ln s`` are derived views.
    Use :func:`ingest` to build one from possibly dirty points.
    """

    beta: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        """Raises ``ValueError`` unless ``beta`` and ``s`` are 1-D, of equal
        length, and every value is finite and > 0."""
        beta = np.asarray(self.beta, dtype=float)
        s = np.asarray(self.s, dtype=float)
        if beta.ndim != 1 or s.ndim != 1 or beta.size != s.size:
            raise ValueError("beta and s must be 1-D arrays of equal length")
        # min > 0 fails on a NaN too, which min propagates.
        if beta.size and not (beta.min() > 0 and beta.max() < math.inf):
            raise ValueError("all beta values must be finite and > 0")
        if s.size and not (s.min() > 0 and s.max() < math.inf):
            raise ValueError("all s values must be finite and > 0")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "s", s)

    @property
    def n(self) -> int:
        return self.beta.size

    @property
    def x(self) -> np.ndarray:
        """Design matrix of shape (n, 2): columns (ln beta, 1)."""
        return np.column_stack([np.log(self.beta), np.ones(self.n)])

    @property
    def y(self) -> np.ndarray:
        """Response vector ln s."""
        return np.log(self.s)


@dataclass(frozen=True)
class GlmFit:
    """Classical estimate of the log-log model.

    Attributes
    ----------
    coef_hat : ndarray, shape (2,)
        Point estimate (a_hat, ln_b_hat).
    s2 : float
        Residual variance estimate, >= 0.
    v_theta : ndarray, shape (2, 2)
        Unscaled coefficient covariance (X^T X)^{-1}.
    dof : int
        Residual degrees of freedom, n - 2.
    """

    coef_hat: np.ndarray
    s2: float
    v_theta: np.ndarray
    dof: int

    def __post_init__(self):
        check_count("dof", self.dof, 1)
        if not (self.coef_hat.shape == (NUM_COEF,) and self.v_theta.shape == (NUM_COEF, NUM_COEF)
                and self.s2 >= 0):
            raise ValueError("a fit needs coef_hat of shape (2,), v_theta of shape (2, 2) and "
                             f"s2 >= 0, got {self.coef_hat.shape}, {self.v_theta.shape} and "
                             f"{self.s2!r}")

    @property
    def a_hat(self) -> float:
        return float(self.coef_hat[0])

    @property
    def ln_b_hat(self) -> float:
        return float(self.coef_hat[1])

    @cached_property
    def cholesky(self) -> np.ndarray:
        """Lower Cholesky factor of ``v_theta``, computed once per fit;
        raises ``np.linalg.LinAlgError`` unless ``v_theta`` is positive
        definite."""
        return _cholesky_2x2(self.v_theta)


def ingest(points) -> tuple[LogDataset, int]:
    """Build a dataset from (beta, s) pairs, rejecting unusable rows.

    Rows with non-finite entries, beta <= 0, or s <= 0 are excluded and
    counted rather than raised: a zero statistic has no log-domain image,
    and flooring it would bias the fit.

    Parameters
    ----------
    points : iterable of (float, float), or float ndarray of shape (n, 2)
        Raw (beta, s) observations; an array is used as it is.

    Returns
    -------
    (LogDataset, int)
        The clean dataset and the number of rejected rows.
    """
    if isinstance(points, np.ndarray):
        return _keep_usable(np.asarray(points, dtype=float))
    return _keep_usable(np.array([(float(beta), float(s)) for beta, s in points], dtype=float))


def _keep_usable(rows: np.ndarray) -> tuple[LogDataset, int]:
    """The dataset of the usable rows of a ``(n, 2)`` float array of
    (beta, s) pairs, and the number of rows left out."""
    beta, s = rows.reshape(-1, 2).T
    keep = np.isfinite(beta) & np.isfinite(s) & (beta > 0) & (s > 0)
    data = object.__new__(LogDataset)   # the kept rows are valid: not checked again
    object.__setattr__(data, "beta", beta[keep])
    object.__setattr__(data, "s", s[keep])
    return data, int(beta.size - np.count_nonzero(keep))


def fit(data: LogDataset) -> GlmFit:
    """Least-squares fit of the log-log model from centered 2x2 sums.

    Centering x = ln beta and y = ln s first removes the common offset of
    tightly clustered betas, which is what ruins the uncentered normal
    equations.  s2 is summed from the explicit residuals: on an exact line
    it stays at rounding level, where the one-pass Syy - a Sxy does not.

    Raises
    ------
    InsufficientData
        Fewer than 3 rows (residual degrees of freedom would be < 1).
    RankDeficient
        All beta values (numerically) identical, or so tightly clustered
        that V_theta has no Cholesky factor, so the posterior could not be
        sampled.
    """
    if data.n < NUM_COEF + 1:
        raise InsufficientData(f"need at least {NUM_COEF + 1} rows, got {data.n}")
    n, x, y = data.n, np.log(data.beta), data.y
    x_bar, y_bar = float(x.sum()) / n, float(y.sum()) / n   # x.mean(), y.mean() bit for bit
    xc, yc = x - x_bar, y - y_bar
    sxx = float(xc @ xc)
    # QR's rank test on [x, 1], times |x|: |R_11| = |x|, |R_22| = sqrt(n Sxx) / |x|.
    r_diag = (float(x @ x), math.sqrt(n * sxx))
    if min(r_diag) <= RANK_RTOL * max(r_diag):
        raise RankDeficient("design matrix is rank deficient: beta values are all equal")
    a = float(xc @ yc) / sxx
    resid = yc - a * xc
    dof = n - NUM_COEF
    s2 = float(resid @ resid) / dof
    v_theta = np.array([[1.0, -x_bar], [-x_bar, sxx / n + x_bar * x_bar]]) / sxx
    result = GlmFit(coef_hat=np.array([a, y_bar - a * x_bar]), s2=s2, v_theta=v_theta, dof=dof)
    try:
        result.cholesky  # validates v_theta, and keeps the factor for sampling
    except np.linalg.LinAlgError:
        raise RankDeficient(
            "beta values are too tightly clustered: the posterior covariance of "
            "the coefficients is not positive definite in floating point"
        ) from None
    return result


def _cholesky_2x2(v: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a 2x2 matrix from its lower triangle; raises
    ``np.linalg.LinAlgError`` unless the matrix is positive definite."""
    l00 = math.sqrt(v[0, 0]) if v[0, 0] > 0.0 else math.nan
    l10 = float(v[1, 0]) / l00
    d11 = float(v[1, 1]) - l10 * l10
    if not d11 > 0.0:  # also when v00 <= 0 or NaN, through l00 = NaN
        raise np.linalg.LinAlgError("v_theta is not positive definite")
    return np.array([[l00, 0.0], [l10, math.sqrt(d11)]])


def sample_posterior(
    fit: GlmFit, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw exact i.i.d. samples from the joint conjugate posterior.

    Returns arrays ``(a, ln_b, eps2)`` of shape ``(count,)``, one joint
    draw per index.  For each draw, eps2 = dof * s2 / x with x ~ chi2(dof)
    (generated as Gamma(dof/2, 2)), then theta ~ N(coef_hat, eps2 * V_theta)
    through the Cholesky factor of V_theta.  The stream is consumed in a fixed order
    (all chi-squared variates, then a (count, 2) block of normals), so a
    fixed seed reproduces draws bit for bit.

    Raises
    ------
    DegenerateVariance
        ``fit.s2`` is zero: the posterior over eps2 collapses and sampling
        zeros would silently disable exploration.
    numpy.linalg.LinAlgError
        ``fit.v_theta`` is not positive definite.
    """
    check_count("count", count, 1)
    if fit.s2 <= 0.0:
        raise DegenerateVariance("residual variance is zero; posterior over eps2 collapses")
    chi2 = rng.gamma(shape=0.5 * fit.dof, scale=2.0, size=count)
    eps2 = fit.dof * fit.s2 / chi2
    z = rng.standard_normal((count, NUM_COEF))
    coefs = fit.coef_hat + np.sqrt(eps2)[:, None] * (z @ fit.cholesky.T)
    return coefs[:, 0], coefs[:, 1], eps2


def save_csv(data: LogDataset, path) -> None:
    """Write the raw observations as ``beta,s`` CSV (UTF-8, LF endings)."""
    write_csv(path, ["beta", "s"], zip(data.beta.tolist(), data.s.tolist()))


def load_csv(path) -> tuple[LogDataset, int]:
    """Read a ``beta,s`` CSV written by :func:`save_csv` (or by hand).

    The grammar:

    - The first line is a header whose first two fields are ``beta`` and
      ``s`` (surrounding spaces and quotes allowed, no byte-order mark).
    - Each further line is a row: its first two comma-separated fields
      are beta and s, optionally quoted and space-padded; further fields
      are ignored, and rows may differ in their number of fields.
    - Blank lines are skipped; LF, CRLF and lone-CR line ends are all
      accepted.
    - Rows with a non-finite or non-positive value are counted as
      rejected, as :func:`ingest` does.
    - Numbers use numpy's parser: ASCII decimal or exponent notation,
      ``nan`` and ``inf``, without digit separators.

    The header is checked on its own line; ``np.loadtxt`` then reads the
    file in place, skipping that line, so the body is never copied into
    a string.  A body of blank lines is read as no rows, without asking
    loadtxt (which would warn that it found no data).

    Returns the dataset plus the count of rejected rows.

    Raises
    ------
    ValueError
        A wrong header, or a row with fewer than two fields or a field
        that is not a number.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = next(csv.reader([fh.readline()]), None)
        if header is None or [h.strip() for h in header[:2]] != ["beta", "s"]:
            raise ValueError(f"{path}: expected header 'beta,s'")
        if not any(line.strip("\r\n") for line in fh):
            return _keep_usable(np.empty((0, 2)))
    rows = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1), ndmin=2, comments=None,
                      quotechar='"', encoding="utf-8")
    return _keep_usable(rows)
