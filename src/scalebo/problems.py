"""Objective problems: synthetic simulators and a static structural fixture.

Synthetic problems draw the statistic from a known generating law so that
ground truth (exponent, scale, noise, optimizer) is available to tests.
The structural fixture is a 1-D fixed-fixed static system with a spectral
stiffness matrix; ``srom_standin`` wraps it in a randomized-basis
reduced-order model so the full optimization pipeline can be exercised on
a structural problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import scipy.io

from .acquisition import EXPONENT_TOL
from .errors import UnknownKind

ROM_DIM = 8


@dataclass(frozen=True)
class ProblemTruth:
    """Generating parameters when analytically known."""

    a: float
    b: float
    eps2: float
    beta_opt: Optional[float]


@dataclass(frozen=True)
class ObjectiveProblem:
    """A stochastic statistic plus the target it is matched against.

    ``evaluate_statistic(beta, rng)`` must return a finite nonnegative
    scalar for any beta in the problem's declared bounds, and must be
    re-entrant given independent rng streams.
    """

    evaluate_statistic: Callable[[float, np.random.Generator], float]
    s0: float
    truth: Optional[ProblemTruth] = None
    label: str = ""

    def __post_init__(self):
        if not (self.s0 > 0 and math.isfinite(self.s0)):
            raise ValueError("target statistic s0 must be finite and > 0")


def target_for_optimum(a: float, ln_b: float, eps2: float, beta_opt: float) -> float:
    """Target s0 that places the induced objective's optimum at ``beta_opt``.

    Inverts ``beta* = (s0 / (b exp(1.5 eps2)))^(1/a)`` for s0.
    """
    if abs(a) < EXPONENT_TOL:
        raise ValueError("exponent a must be nonzero to place an optimum")
    return math.exp(ln_b + 1.5 * eps2 + a * math.log(beta_opt))


def _check_beta(beta: float) -> float:
    if not (beta > 0 and math.isfinite(beta)):
        raise ValueError(f"beta must be finite and > 0, got {beta!r}")
    return float(beta)


def synthetic_powerlaw(a: float, ln_b: float, eps2: float, s0: float) -> ObjectiveProblem:
    """Statistic drawn exactly from the log-log Gaussian generating law.

    ``s | beta = exp(a ln beta + ln_b + sqrt(eps2) z)`` with z standard
    normal, so the surrogate model is correctly specified and the true
    optimizer is known in closed form.
    """
    if eps2 < 0:
        raise ValueError("eps2 must be >= 0")
    sigma = math.sqrt(eps2)

    def evaluate_statistic(beta, rng):
        beta = _check_beta(beta)
        z = rng.standard_normal()
        return math.exp(a * math.log(beta) + ln_b + sigma * z)

    beta_opt = None
    if abs(a) >= EXPONENT_TOL:
        beta_opt = math.exp((math.log(s0) - ln_b - 1.5 * eps2) / a)
    truth = ProblemTruth(a=a, b=math.exp(ln_b), eps2=eps2, beta_opt=beta_opt)
    return ObjectiveProblem(evaluate_statistic, s0=s0, truth=truth, label="synthetic-powerlaw")


def synthetic_misspecified(kind: str, params: dict) -> ObjectiveProblem:
    """Power-law-mean simulators whose residual law breaks the Gaussian model.

    Kinds
    -----
    ``gamma-noise``
        Multiplicative Gamma(shape, 1/shape) noise (unit mean); the
        log-residual is left-skewed.
    ``heteroscedastic``
        Gaussian log-noise with beta-dependent spread
        ``eps(beta) = eps_base + eps_slope / ln(beta)`` (domain beta > 1).
    ``shifted-lognormal``
        An additive offset on top of the log-normal statistic; shift 0
        reduces exactly to :func:`synthetic_powerlaw`.

    No ground-truth optimizer is recorded: these laws are outside the
    surrogate family, so tests locate their optima by brute force.
    """
    opts = dict(params)
    required = object()

    def take(name, default=required):
        if name in opts:
            return float(opts.pop(name))
        if default is required:
            raise ValueError(f"{kind}: missing parameter {name!r}")
        return float(default)

    if kind == "gamma-noise":
        a, ln_b, s0 = take("a"), take("ln_b"), take("s0")
        shape = take("shape", 4.0)
        if shape <= 0:
            raise ValueError("gamma-noise: shape must be > 0")

        def evaluate_statistic(beta, rng):
            beta = _check_beta(beta)
            return math.exp(a * math.log(beta) + ln_b) * rng.gamma(shape, 1.0 / shape)

    elif kind == "heteroscedastic":
        a, ln_b, s0 = take("a"), take("ln_b"), take("s0")
        eps_base = take("eps_base", 0.2)
        eps_slope = take("eps_slope", 0.1)

        def evaluate_statistic(beta, rng):
            beta = _check_beta(beta)
            if beta <= 1.0:
                raise ValueError("heteroscedastic kind is defined for beta > 1")
            ln_beta = math.log(beta)
            eps = eps_base + eps_slope / ln_beta
            return math.exp(a * ln_beta + ln_b + eps * rng.standard_normal())

    elif kind == "shifted-lognormal":
        a, ln_b, eps2, s0 = take("a"), take("ln_b"), take("eps2"), take("s0")
        if eps2 < 0:
            raise ValueError("shifted-lognormal: eps2 must be >= 0")
        shift = take("shift", 0.0)
        if shift < 0:
            raise ValueError("shifted-lognormal: shift must be >= 0")
        sigma = math.sqrt(eps2)

        def evaluate_statistic(beta, rng):
            beta = _check_beta(beta)
            return shift + math.exp(a * math.log(beta) + ln_b + sigma * rng.standard_normal())

    else:
        raise UnknownKind(f"unknown misspecified kind {kind!r}")

    if opts:
        raise ValueError(f"{kind}: unknown parameters {sorted(opts)}")
    return ObjectiveProblem(evaluate_statistic, s0=s0, truth=None, label=kind)


@dataclass(frozen=True)
class StaticFixture:
    """1-D fixed-fixed static system with a spectrally defined stiffness.

    The stiffness is ``K = Phi diag(lambda) Phi^T`` with
    ``lambda_i = 4 pi^2 i^2`` and ``Phi`` the orthonormal Q-factor of the
    sine matrix ``P[j, k] = sin(k pi (j-1)/(n-1))`` (columns sign-fixed so
    the largest-magnitude entry is positive).  Two force vectors built
    from different eigenvector combinations produce a reference solution
    ``x_exp`` and a high-dimensional-model solution ``x_hdm``; both are
    solved with the end degrees of freedom eliminated.  An 8-mode
    reduced-order model yields ``x_rom``.
    """

    n_dof: int
    stiffness: np.ndarray   # (n, n)
    basis: np.ndarray       # Phi, (n, n), orthonormal columns
    eigvals: np.ndarray     # lambda, (n,)
    f_exp: np.ndarray
    f_hdm: np.ndarray
    x_exp: np.ndarray
    x_hdm: np.ndarray
    rom_basis: np.ndarray   # V, (n, ROM_DIM)
    x_rom: np.ndarray

    @property
    def model_error(self) -> float:
        """Euclidean distance between the reference and ROM solutions.

        This is the target statistic the stand-in stochastic ROM is tuned
        against.  The plain (unscaled) Euclidean norm is used throughout;
        any fixed norm scaling shifts scale and target equally and leaves
        the optimizer unchanged.
        """
        return float(np.linalg.norm(self.x_exp - self.x_rom))


def _solve_fixed_ends(k_mat: np.ndarray, force: np.ndarray) -> np.ndarray:
    """Solve K x = f with x[0] = x[-1] = 0 by eliminating the end DoFs."""
    n = k_mat.shape[0]
    free = slice(1, n - 1)
    x = np.zeros(n)
    x[free] = np.linalg.solve(k_mat[free, free], force[free])
    return x


@lru_cache(maxsize=1)
def build_static_fixture(n_dof: int = 1000) -> StaticFixture:
    """Construct the static fixture (cached; instances are immutable).

    The mode combinations and their normalizing constants for the two
    force vectors are fixed properties of the benchmark problem.
    """
    n = n_dof
    j = np.arange(n, dtype=float)[:, None]       # row index j-1 = 0..n-1
    k = np.arange(1, n + 1, dtype=float)[None, :]
    p = np.sin(k * np.pi * j / (n - 1))
    phi, _ = np.linalg.qr(p)
    # QR leaves column signs arbitrary; fix them so the force-vector
    # mode combinations are well defined.
    flip = phi[np.abs(phi).argmax(axis=0), np.arange(n)] < 0
    phi[:, flip] *= -1.0

    lam = 4.0 * np.pi**2 * np.arange(1, n + 1, dtype=float) ** 2
    stiffness = (phi * lam) @ phi.T
    stiffness = 0.5 * (stiffness + stiffness.T)

    def mode(i):
        return phi[:, i - 1]

    f_exp = (0.1 * mode(2) + 0.4 * mode(5) + 0.6 * mode(8)
             + 2.5 * (mode(31) + mode(32)) - 0.015 * mode(1)) / 0.261466
    f_hdm = (0.1 * mode(2) + 0.4 * mode(5) + 0.6 * mode(8)
             + 2.5 * (mode(29) + mode(30) + mode(31))) / 0.27702

    x_exp = _solve_fixed_ends(stiffness, f_exp)
    x_hdm = _solve_fixed_ends(stiffness, f_hdm)

    rom_basis = phi[:, :ROM_DIM].copy()
    reduced = rom_basis.T @ stiffness @ rom_basis
    q = np.linalg.solve(reduced, rom_basis.T @ f_hdm)
    x_rom = rom_basis @ q

    arrays = dict(stiffness=stiffness, basis=phi, eigvals=lam, f_exp=f_exp,
                  f_hdm=f_hdm, x_exp=x_exp, x_hdm=x_hdm, rom_basis=rom_basis,
                  x_rom=x_rom)
    for arr in arrays.values():
        arr.setflags(write=False)
    return StaticFixture(n_dof=n, **arrays)


def srom_standin(fixture: StaticFixture) -> ObjectiveProblem:
    """Randomized-basis ROM problem on the static fixture.

    This is an invented stand-in, NOT a published stochastic reduced-order
    model: it exists purely to exercise the optimization pipeline on a
    structural problem whose statistic empirically follows an approximate
    power law.  The statistic is the Euclidean distance from the deterministic
    ROM solution of the Galerkin solution ``A (A^T K A)^{-1} A^T f`` on the
    perturbed basis ``A = V + beta^{-1/2} G``, G an i.i.d. standard normal
    matrix; it depends only on the span of A, so A is not orthonormalized.
    The target is the fixture's model error.

    Implementation note: everything is computed in the eigenbasis of the
    stiffness.  Because the basis matrix is orthogonal, an i.i.d. normal
    perturbation drawn in eigen coordinates equals (in law, and exactly
    under ``G_phys = Phi @ G_eig``) one drawn in physical coordinates, and
    Euclidean distances are preserved; the rotated form avoids a dense
    1000x1000 product per draw.
    """
    n, m = fixture.n_dof, ROM_DIM
    lam = fixture.eigvals
    v_eig = np.eye(n, m)
    f_hdm_eig = fixture.basis.T @ fixture.f_hdm
    x_rom_eig = fixture.basis.T @ fixture.x_rom

    def evaluate_statistic(beta, rng):
        beta = _check_beta(beta)
        g = rng.standard_normal((n, m))
        basis = v_eig + g / math.sqrt(beta)
        reduced = (basis * lam[:, None]).T @ basis
        q = np.linalg.solve(reduced, basis.T @ f_hdm_eig)
        return float(np.linalg.norm(basis @ q - x_rom_eig))

    return ObjectiveProblem(
        evaluate_statistic,
        s0=fixture.model_error,
        truth=None,
        label="srom-standin",
    )


def export_fixture(fixture: StaticFixture, outdir) -> list[Path]:
    """Write K, V and the two force vectors in Matrix Market format."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    items = {
        "K": fixture.stiffness,
        "V": fixture.rom_basis,
        "f_E": fixture.f_exp.reshape(-1, 1),
        "f_H": fixture.f_hdm.reshape(-1, 1),
    }
    written = []
    for name, arr in items.items():
        path = outdir / f"{name}.mtx"
        scipy.io.mmwrite(str(path), arr)
        written.append(path)
    return written
