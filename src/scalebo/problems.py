"""Objective problems: synthetic simulators and a static structural fixture.

Synthetic problems draw the statistic from a known generating law so that
ground truth (exponent, scale, noise, optimizer) is available to tests.
The structural system, a 1-D fixed-fixed static system with a spectral
stiffness matrix, is defined once in its modal closed form: the static
fixture is its image in physical coordinates, and ``srom_standin`` poses a
randomized-basis reduced-order model on it in eigencoordinates, so the full
optimization pipeline can be exercised on a structural problem.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .acquisition import _LOG_MAX, SurrogateObjective
from .errors import EvaluationFailure
from .jsonio import check_number

ROM_DIM = 8
N_DOF = 1000   # the structural system's size


@dataclass(frozen=True)
class ObjectiveProblem:
    """A stochastic statistic plus the target it is matched against.

    ``evaluate_statistic(beta, rng)`` must return a finite nonnegative
    scalar for any beta in the problem's declared bounds.  Calls are made
    one at a time, in order, and consecutive calls share ``rng``: a
    Thompson batch draws all its statistics from one generator, and a
    baseline run all its probes.

    A callable may also accept two keywords.  Both optimizers call the
    statistic through :func:`draw_statistics`, which reads them from its
    signature once per problem (through ``functools.wraps`` wrappers that
    forward ``**kwargs`` too, see :func:`_declares`):

    * numpy's ``size``: ``evaluate_statistic(beta, rng, size=k)`` returns
      ``k`` draws at ``beta`` as a float array, taken from ``rng`` in the
      same order as ``k`` scalar calls.  The baseline then draws each probe
      in one call.
    * ``batch``, a list: ``evaluate_statistic(betas, rng, batch=out)``
      appends to ``out`` the statistic at each beta of the sequence
      ``betas`` in turn, as floats with the bits of one scalar call per
      beta on ``rng``, and returns None.  A failure at a beta raises once
      the values of the betas before it are appended, so that it is named.
      The driver then draws each Thompson batch in one call.

    A callable without them gets one scalar call per draw.  The built-in
    ``synthetic-powerlaw``, ``gamma-noise``, ``heteroscedastic`` and
    ``shifted-lognormal`` kinds take both: one ``standard_normal`` or
    ``gamma`` call of all the draws, then each beta's ``check_beta``,
    ``math.log`` and ``math.exp`` as in its scalar call.
    ``srom-standin`` takes neither: most of a draw's cost is its 8000
    standard normals, which one call per probe cannot save, and a version
    solving a probe's draws as one stacked array was measured slower.

    The statistic is defined for beta > ``beta_floor``: 0 for every
    built-in kind but ``heteroscedastic``, whose floor is 1.
    """

    evaluate_statistic: Callable[..., float]
    s0: float
    truth: Optional[SurrogateObjective] = None
    label: str = ""
    beta_floor: float = 0.0

    def __post_init__(self):
        check_number("s0", self.s0, 0.0, above=True)

    @cached_property
    def _takes_size(self) -> bool:
        return _declares(self.evaluate_statistic, "size")

    @cached_property
    def _takes_batch(self) -> bool:
        return _declares(self.evaluate_statistic, "batch")


def _declares(statistic, keyword: str) -> bool:
    """Whether ``statistic`` takes ``keyword``: its own signature names it,
    or takes ``**kwargs`` and wraps (``__wrapped__``, as ``functools.wraps``
    sets) a callable that declares it.  So a tracer forwarding every keyword
    keeps the wrapped statistic's forms, and a wrapper naming only ``size``
    does not take ``batch``."""
    while True:
        try:
            parameters = inspect.signature(statistic, follow_wrapped=False).parameters
        except (TypeError, ValueError):     # no signature to read: call per draw
            return False
        if keyword in parameters:
            return True
        forwards = any(p.kind is p.VAR_KEYWORD for p in parameters.values())
        statistic = getattr(statistic, "__wrapped__", None)
        if not forwards or statistic is None:
            return False


def draw_statistics(problem: ObjectiveProblem, betas, rng, size=None, iteration=None) -> list:
    """The statistic at each of the sequence ``betas`` in turn, every draw
    from the one generator ``rng``: a float per beta, from one ``batch``
    call when the problem takes ``batch``, else from a scalar call each; or
    with ``size`` an array of ``size`` draws per beta, from one ``size=k``
    call when the problem takes ``size``, else from k scalar calls.  A
    failure is raised as :class:`EvaluationFailure` naming beta and, when
    given, ``iteration``."""
    statistic = problem.evaluate_statistic
    out = []
    try:
        if size is None and len(betas) and problem._takes_batch:
            statistic(betas, rng, batch=out)
            if len(out) != len(betas):
                raise ValueError(f"batch of {len(betas)} betas returned {len(out)} values")
            return out
        sized = size is not None and problem._takes_size
        for beta in betas:
            if size is None:
                out.append(float(statistic(beta, rng)))
            elif not sized:
                out.append(np.array([float(statistic(beta, rng)) for _ in range(size)]))
            else:
                draws = np.asarray(statistic(beta, rng, size=size), dtype=float)
                if draws.shape != (size,):
                    raise ValueError(f"size={size} returned shape {draws.shape}")
                out.append(draws)
    except Exception as exc:
        beta = betas[min(len(out), len(betas) - 1)]   # the first beta without a value
        context = "" if iteration is None else f" (iteration {iteration})"
        raise EvaluationFailure(f"statistic evaluation failed at beta={beta:g}{context}: {exc}",
                                iteration=iteration, beta=beta) from exc
    return out


def round_into_bounds(beta: float, bounds: tuple[float, float]) -> float:
    """The integer nearest ``beta`` (ties to even), clamped to the integers
    inside ``bounds``, as a float."""
    return float(min(max(float(np.rint(beta)), math.ceil(bounds[0])), math.floor(bounds[1])))


def target_for_optimum(a: float, ln_b: float, eps2: float, beta_opt: float) -> float:
    """Target s0 that places the induced objective's optimum at ``beta_opt``.

    Inverts ``beta* = (s0 / (b exp(1.5 eps2)))^(1/a)`` for s0.  Refuses by
    name an ``a`` or ``ln_b`` that is no number, and a ``beta_opt`` that is
    no number > 0, or whose s0 is no positive float.
    """
    _check_law(a, ln_b)
    if a == 0:
        raise ValueError("exponent a must be nonzero to place an optimum")
    check_number("beta_opt", beta_opt, 0.0, above=True)
    ln_s0 = ln_b + 1.5 * eps2 + a * math.log(beta_opt)
    if not (ln_s0 <= _LOG_MAX and math.exp(ln_s0) > 0):
        raise ValueError(f"beta_opt {beta_opt:g} sets s0 = exp({ln_s0:g}), not a positive float")
    return math.exp(ln_s0)


def _lognormal(law: Callable[[float], tuple[float, float]], shift: float = 0.0):
    """The statistic ``shift + exp(center + spread * z)``, z standard normal,
    with ``(center, spread) = law(beta)``; ``law`` checks beta.

    A scalar draw and each value of a ``batch`` are ``math.exp`` of one
    normal, and so have the same bits; a sized draw is ``np.exp`` of its
    array in place, whose SIMD ``exp`` may differ from ``math.exp`` in the
    last bits.  All raise ``OverflowError`` when a draw's exp is beyond
    float range: the sized path hands its largest exponent to ``math.exp``
    first, found by ``argmax``, which costs a third of ``max``.
    """
    def evaluate_statistic(beta, rng, size=None, batch=None):
        if batch is not None:
            for beta_i, z in zip(beta, rng.standard_normal(len(beta)).tolist()):
                center, spread = law(beta_i)
                batch.append(shift + math.exp(center + spread * z))
            return None
        center, spread = law(beta)
        z = rng.standard_normal(size)
        if size is None:
            return shift + math.exp(center + spread * z)
        z *= spread
        z += center
        if z.size:
            math.exp(z[z.argmax()])
        np.exp(z, out=z)
        if shift:
            z += shift
        return z

    return evaluate_statistic


def _check_law(a: float, ln_b: float) -> None:
    """Refuse by name a power law's ``a`` or ``ln_b`` that is no number."""
    check_number("a", a)
    check_number("ln_b", ln_b)


def _scale(a: float, ln_b: float) -> float:
    """The power law's scale ``b = exp(ln_b)``.  Refuses by name an ``a`` or
    ``ln_b`` that is no number, and an ``ln_b`` whose exp is no positive float."""
    _check_law(a, ln_b)
    if not (ln_b <= _LOG_MAX and math.exp(ln_b) > 0):
        raise ValueError(f"ln_b {ln_b:g} sets b = exp(ln_b), not a positive float")
    return math.exp(ln_b)


def check_beta(beta) -> float:
    """``beta`` as a float if :func:`~scalebo.jsonio.check_number` takes it
    as a number > 0, checked without a call when it is a float."""
    if type(beta) is float and 0.0 < beta < math.inf:
        return beta
    check_number("beta", beta, 0.0, above=True)
    return float(beta)


def synthetic_powerlaw(a: float, ln_b: float, eps2: float, s0: Optional[float] = None,
                       beta_opt: Optional[float] = None) -> ObjectiveProblem:
    """Statistic drawn exactly from the log-log Gaussian generating law.

    ``s | beta = exp(a ln beta + ln_b + sqrt(eps2) z)`` with z standard
    normal, so the surrogate model is correctly specified: the problem's
    ``truth`` is the law's :class:`~scalebo.acquisition.SurrogateObjective`,
    and ``argmin_closed_form(truth)`` its optimizer.  The target is given
    either as ``s0`` or as the optimum ``beta_opt`` it induces
    (:func:`target_for_optimum`).
    """
    check_number("eps2", eps2, 0.0)
    if (s0 is None) == (beta_opt is None):
        raise ValueError("synthetic-powerlaw needs exactly one of 's0' or 'beta_opt'")
    if beta_opt is not None:
        s0 = target_for_optimum(a, ln_b, eps2, beta_opt)
    truth = SurrogateObjective(a, _scale(a, ln_b), eps2, s0)
    sigma = math.sqrt(eps2)
    evaluate_statistic = _lognormal(lambda beta: (a * math.log(check_beta(beta)) + ln_b, sigma))
    return ObjectiveProblem(evaluate_statistic, s0=s0, truth=truth, label="synthetic-powerlaw")


# The misspecified kinds below keep the power-law mean but break the
# Gaussian residual law.  No ground-truth optimizer is recorded: these laws
# are outside the surrogate family, so tests locate their optima by brute
# force.

def gamma_noise(a: float, ln_b: float, s0: float, shape: float = 4.0) -> ObjectiveProblem:
    """Multiplicative Gamma(shape, 1/shape) noise (unit mean); the
    log-residual is left-skewed."""
    _scale(a, ln_b)
    check_number("shape", shape, 0.0, above=True)

    def evaluate_statistic(beta, rng, size=None, batch=None):
        if batch is not None:
            for beta_i, noise in zip(beta, rng.gamma(shape, 1.0 / shape, len(beta)).tolist()):
                batch.append(math.exp(a * math.log(check_beta(beta_i)) + ln_b) * noise)
            return None
        scale = math.exp(a * math.log(check_beta(beta)) + ln_b)
        noise = rng.gamma(shape, 1.0 / shape, size)
        return scale * noise if size is None else np.multiply(noise, scale, out=noise)

    return ObjectiveProblem(evaluate_statistic, s0=s0, label="gamma-noise")


def heteroscedastic(a: float, ln_b: float, s0: float, eps_base: float = 0.2,
                    eps_slope: float = 0.1) -> ObjectiveProblem:
    """Gaussian log-noise with beta-dependent spread
    ``eps(beta) = eps_base + eps_slope / ln(beta)`` (domain beta > 1)."""
    _scale(a, ln_b)
    check_number("eps_base", eps_base)
    check_number("eps_slope", eps_slope)

    def law(beta):
        beta = check_beta(beta)
        if beta <= 1.0:
            raise ValueError("heteroscedastic kind is defined for beta > 1")
        ln_beta = math.log(beta)
        return a * ln_beta + ln_b, eps_base + eps_slope / ln_beta

    return ObjectiveProblem(_lognormal(law), s0=s0, label="heteroscedastic", beta_floor=1.0)


def shifted_lognormal(a: float, ln_b: float, eps2: float, s0: float,
                      shift: float = 0.0) -> ObjectiveProblem:
    """An additive offset on top of the log-normal statistic; shift 0
    reduces exactly to :func:`synthetic_powerlaw`."""
    _scale(a, ln_b)
    check_number("eps2", eps2, 0.0)
    check_number("shift", shift, 0.0)
    sigma = math.sqrt(eps2)
    statistic = _lognormal(lambda beta: (a * math.log(check_beta(beta)) + ln_b, sigma), shift)
    return ObjectiveProblem(statistic, s0=s0, label="shifted-lognormal")


@dataclass(frozen=True)
class StaticFixture:
    """1-D fixed-fixed static system of n = ``N_DOF`` DoFs, spectral stiffness.

    The stiffness is ``K = Phi diag(lambda) Phi^T`` with
    ``lambda_k = 4 pi^2 k^2``.  Phi is orthonormal and written down: its
    columns 1..n-2 are the normalized sine modes
    ``sqrt(2/(n-1)) sin(k pi j/(n-1))``, j = 0..n-1, and its last two are
    ``e_{n-1}`` and ``e_0``.  This is the Q factor, with a positive R
    diagonal, of the sine matrix ``P[j, k] = sin(k pi j/(n-1))``, k = 1..n,
    whose rank is n-2 (column n-1 is zero, column n is minus column n-2):
    each sine mode is exactly 0.0 where ``k j`` is a multiple of n-1, the
    end rows included, and its first interior entry is positive.

    Every other array is Phi times its modal vector (``_modal_system``): two
    force vectors, built from different combinations of sine modes, their
    fixed-end solutions ``x_exp`` (the reference) and ``x_hdm`` (the
    high-dimensional model), and the solution ``x_rom`` of the reduced-order
    model on the first ``ROM_DIM`` modes ``V``.  The sine modes vanish at
    both ends, so the solutions do too.
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


def _modal_system() -> dict:
    """The structural system in stiffness eigencoordinates, in closed form.

    Returns the eigenvalues ``eigvals`` and the coordinates ``Phi^T v`` of
    the fixture's vectors ``f_exp``, ``f_hdm``, ``x_exp``, ``x_hdm`` and
    ``x_rom``, keyed by their :class:`StaticFixture` field names.

    Each force vector is a fixed combination of sine modes 1..32 over a
    normalizing constant, so its coordinates are the combination's weights
    over that constant.  The sine modes vanish at both ends, so with the end
    DoFs eliminated they span the free DoFs, K acts on them as
    ``diag(lambda)``, and a fixed-end solve divides each coordinate by its
    eigenvalue: ``x_exp = f_exp / lambda``.  The ROM basis is the first
    ``ROM_DIM`` modes, so its reduced operator is ``diag(lambda[:ROM_DIM])``
    and ``x_rom`` keeps the first ``ROM_DIM`` coordinates of
    ``f_hdm / lambda`` and zeros the rest.
    """
    lam = 4.0 * np.pi**2 * np.arange(1, N_DOF + 1, dtype=float) ** 2
    f_exp = np.zeros(N_DOF)
    f_exp[[1, 4, 7, 30, 31, 0]] = [0.1, 0.4, 0.6, 2.5, 2.5, -0.015]
    f_exp /= 0.261466
    f_hdm = np.zeros(N_DOF)
    f_hdm[[1, 4, 7, 28, 29, 30]] = [0.1, 0.4, 0.6, 2.5, 2.5, 2.5]
    f_hdm /= 0.27702
    x_hdm = f_hdm / lam
    x_rom = np.zeros(N_DOF)
    x_rom[:ROM_DIM] = x_hdm[:ROM_DIM]
    return dict(eigvals=lam, f_exp=f_exp, f_hdm=f_hdm, x_exp=f_exp / lam,
                x_hdm=x_hdm, x_rom=x_rom)


@lru_cache(maxsize=1)
def build_static_fixture() -> StaticFixture:
    """The structural system in physical coordinates: Phi, K and Phi times
    each modal vector (cached; instances are immutable)."""
    modal = _modal_system()
    lam = modal.pop("eigvals")
    n = lam.size
    # k j reduced mod 2(n-1) is exact in integers, so each sine's argument
    # lies in [0, 2 pi) and its zeros are set, not left to rounding.
    kj = np.outer(np.arange(n), np.arange(1, n - 1)) % (2 * (n - 1))
    sines = np.where(kj % (n - 1) == 0, 0.0, np.sin(kj * (np.pi / (n - 1))))
    phi = np.zeros((n, n))
    phi[:, :n - 2] = math.sqrt(2.0 / (n - 1)) * sines
    phi[n - 1, n - 2] = phi[0, n - 1] = 1.0

    stiffness = (phi * lam) @ phi.T
    stiffness = 0.5 * (stiffness + stiffness.T)
    arrays = {name: phi @ v for name, v in modal.items()}
    arrays.update(stiffness=stiffness, basis=phi, eigvals=lam, rom_basis=phi[:, :ROM_DIM].copy())
    for arr in arrays.values():
        arr.setflags(write=False)
    return StaticFixture(n_dof=n, **arrays)


def srom_standin() -> ObjectiveProblem:
    """Randomized-basis ROM problem on the static fixture's system.

    This is an invented stand-in, NOT a published stochastic reduced-order
    model: it exists purely to exercise the optimization pipeline on a
    structural problem whose statistic empirically follows an approximate
    power law.  The statistic is the Euclidean distance from the deterministic
    ROM solution of the Galerkin solution ``A (A^T K A)^{-1} A^T f`` on the
    perturbed basis ``A = V + beta^{-1/2} G``, G an i.i.d. standard normal
    matrix; it depends only on the span of A, so A is not orthonormalized.
    The target is the model error ``||x_exp - x_rom||`` of
    ``build_static_fixture()``.

    Implementation note: everything is computed in the eigenbasis of the
    stiffness, where K is ``diag(lambda)`` and every vector the problem
    needs is the modal data that ``build_static_fixture`` multiplies by
    Phi (``_modal_system``), so the dense fixture is never built.  Because
    Phi is orthogonal, an i.i.d. normal perturbation drawn in eigen
    coordinates equals (in law, and exactly under ``G_phys = Phi @ G_eig``)
    one drawn in physical coordinates, and Euclidean distances are
    preserved; the rotated form avoids a dense 1000x1000 product per draw.
    """
    modal = _modal_system()
    lam, f_hdm_eig, x_rom_eig = modal["eigvals"], modal["f_hdm"], modal["x_rom"]
    n, m = lam.size, ROM_DIM
    lam_nm = np.repeat(lam[:, None], m, axis=1)   # contiguous: a (n, 1) broadcast is slower
    modes = np.arange(m)                          # V = I[:, :m]: ones at (k, k)

    def evaluate_statistic(beta, rng):
        beta = check_beta(beta)
        basis = rng.standard_normal((n, m))
        basis /= math.sqrt(beta)
        basis[modes, modes] += 1.0
        reduced = (basis * lam_nm).T @ basis
        q = np.linalg.solve(reduced, basis.T @ f_hdm_eig)
        r = basis @ q
        r[:m] -= x_rom_eig[:m]   # x_rom is zero past the ROM's m modes
        return math.sqrt(r @ r)

    return ObjectiveProblem(
        evaluate_statistic,
        s0=float(np.linalg.norm(modal["x_exp"] - x_rom_eig)),
        truth=None,
        label="srom-standin",
    )


def write_matrix_market(path, arr: np.ndarray) -> None:
    """A dense real matrix in Matrix Market ``array real general`` format:
    the header line, an empty ``%`` comment line, the dimensions, then one
    value per line in column-major order.  Each value is Python's shortest
    repr that reads back to the same float, ``-0.0`` included."""
    rows, cols = arr.shape
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"%%MatrixMarket matrix array real general\n%\n{rows} {cols}\n")
        for column in arr.T:   # .tolist() gives floats: a numpy scalar's repr is np.float64(...)
            fh.write("\n".join(map(float.__repr__, column.tolist())))
            fh.write("\n")


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
        write_matrix_market(path, arr)
        written.append(path)
    return written
