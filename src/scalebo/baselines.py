"""Monte-Carlo-averaged 1-D optimization baselines.

These are the conventional methods the surrogate approach is benchmarked
against: estimate the objective at a probe point by averaging
``|s - s0|^2`` over many statistic draws, then drive a scalar optimizer
(golden section, or safeguarded successive parabolic interpolation) over
``ln beta``.  Every probe's draws are cached so the audited cost is
exactly ``mc_samples x distinct probes``.

Both methods share one search loop and its stop rules; each adds only
its step rule.  Every stop, a spent probe budget included, returns the
best probe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import SurrogateOverflow
from .driver import STREAMS, rng_stream
from .jsonio import check_bounds, check_count, check_number
from .problems import ObjectiveProblem, check_beta, draw_statistics, round_into_bounds

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0          # bracket shrink factor
_PARABOLIC_FALLBACK = 1.0 - GOLDEN             # golden step fraction, ~0.382

# Per baseline method: the name of its optimizer in this module (read at
# call time, so a replaced function such as a tracing wrapper runs), its
# probe schedule over ln beta, and its stop reasons, as ``run.json`` names
# them.
METHODS = {
    "golden": ("golden_section", "ln-beta golden bracket from [beta_min, beta_max]",
               "bracket < {tol} | noise-floor | budget ({max_iter} probes)"),
    "parabolic": ("parabolic_interpolation",
                  "ln-beta parabolic triple from [beta_min, beta_max], golden-safeguarded",
                  "bracket < {tol} | converged | noise-floor | budget ({max_iter} probes)"),
}


def _moments(g: np.ndarray) -> tuple[float, float]:
    """The mean of ``g`` and its standard error, the bits of ``g.mean()``
    and ``g.std(ddof=1) / sqrt(n)`` (0.0 at n = 1): the same pairwise sums
    and divisions, without ``std``'s Python layers.  ``g`` is overwritten
    with its squared deviations."""
    n = g.size
    mean = float(np.add.reduce(g)) / n
    if n == 1:
        return mean, 0.0
    g -= mean
    np.multiply(g, g, out=g)
    return mean, math.sqrt(float(np.add.reduce(g)) / (n - 1)) / math.sqrt(n)


@dataclass(frozen=True)
class ProbeStats:
    """Cached Monte-Carlo estimate of the objective at one beta."""

    beta: float
    mean: float      # mean of |s - s0|^2
    se: float        # standard error of that mean
    s_draws: np.ndarray


@dataclass
class McObjective:
    """Monte-Carlo objective with per-beta caching and an audited counter.

    A beta value is never re-drawn within one objective instance: repeat
    queries hit the cache and leave ``evaluations_used`` unchanged.  Every
    probe reads the next ``mc_samples`` draws of one generator, the run's
    ``"baseline"`` stream of :data:`scalebo.driver.STREAMS`, so a run's probes
    depend on their order.  ``threads`` is deprecated: it is checked, an
    integer >= 1, so that callers written for the earlier thread pool still
    run, and not kept.
    """

    problem: ObjectiveProblem
    mc_samples: int = 1000
    seed: int = 0
    threads: InitVar[int] = 1
    evaluations_used: int = field(init=False, default=0)

    def __post_init__(self, threads):
        check_count("mc_samples", self.mc_samples, 1)
        check_count("seed", self.seed, 0)
        check_count("threads", threads, 1)
        self._cache: dict[float, ProbeStats] = {}
        self._rng = rng_stream(self.seed, STREAMS["baseline"])

    @property
    def probes(self) -> list[ProbeStats]:
        """All cached probes in evaluation order, which is the cache's
        insertion order: a probe is never removed or re-drawn."""
        return list(self._cache.values())

    @property
    def probe_count(self) -> int:
        """The number of cached probes, without the copy that ``probes`` makes."""
        return len(self._cache)

    def probe(self, beta: float) -> ProbeStats:
        key = check_beta(beta)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        draws, = draw_statistics(self.problem, [key], self._rng, size=self.mc_samples)
        with np.errstate(over="ignore", invalid="ignore"):   # refused below, by beta
            g = draws - self.problem.s0
            np.multiply(g, g, out=g)
            mean, se = _moments(g)
        if not (math.isfinite(mean) and math.isfinite(se)):
            raise SurrogateOverflow(f"Monte-Carlo objective at beta={key:g} is not a finite "
                                    f"number: mean {mean!r}, standard error {se!r}")
        stats = ProbeStats(beta=key, mean=mean, se=se, s_draws=draws)
        self._cache[key] = stats
        self.evaluations_used += draws.size
        return stats


@dataclass(frozen=True)
class BaselineResult:
    method: str
    beta_hat: float
    evaluations_used: int
    probes: list[ProbeStats]
    stop_reason: str                     # "bracket" | "noise-floor" | "budget" | "converged"


# A single noisy triple can fake a flat objective; require two detections
# in a row before declaring the noise floor reached.
_FLOOR_CONSECUTIVE = 2


def _noise_floor(obj: McObjective) -> bool:
    """True when MC noise at the latest points swamps their spread.

    Looks at the three most recent probes: once the average standard
    error of their means exceeds the spread of the means, further
    bracketing only chases noise.
    """
    recent = obj.probes[-3:]
    if len(recent) < 3:
        return False
    means = [p.mean for p in recent]
    spread = max(means) - min(means)
    avg_se = sum(p.se for p in recent) / 3.0
    return avg_se > spread


def _search(obj, bounds, tol, max_iter, integer_beta, method, steps) -> BaselineResult:
    """Run the generator ``steps(probe, u_lo, u_hi)``, which probes ln beta
    and yields its bracket before each further step, until, in this order,
    the bracket is no wider than ``tol``, the noise floor is seen twice in a
    row, or ``max_iter`` probes are spent; a step rule that returns has
    converged."""
    check_bounds(bounds, integer_beta)
    check_number("tol", tol, 0.0, above=True)
    check_count("max_iter", max_iter, 3)
    beta_lo, beta_hi = bounds

    def probe(u):  # the MC mean at beta = e^u, rounded if integer_beta, within bounds
        beta = math.exp(u)
        if integer_beta:
            beta = round_into_bounds(beta, bounds)
        return obj.probe(min(max(beta, beta_lo), beta_hi)).mean

    stop_reason = "converged"
    floor_hits = 0
    for lo, hi in steps(probe, math.log(beta_lo), math.log(beta_hi)):
        if hi - lo <= tol:
            stop_reason = "bracket"
            break
        floor_hits = floor_hits + 1 if _noise_floor(obj) else 0
        if floor_hits >= _FLOOR_CONSECUTIVE:
            stop_reason = "noise-floor"
            break
        if obj.probe_count >= max_iter:
            stop_reason = "budget"
            break
    best = min(obj.probes, key=lambda p: p.mean)   # the earliest of equal means
    return BaselineResult(method=method, beta_hat=best.beta,
                          evaluations_used=obj.evaluations_used, probes=obj.probes,
                          stop_reason=stop_reason)


def _golden_steps(probe, u_lo, u_hi):
    """Golden-section steps: keep the sub-interval around the lower of the
    two interior points; ties keep the left one, for determinism."""
    x1 = u_hi - GOLDEN * (u_hi - u_lo)
    x2 = u_lo + GOLDEN * (u_hi - u_lo)
    f1 = probe(x1)
    f2 = probe(x2)
    while True:
        yield u_lo, u_hi
        if f1 <= f2:
            u_hi, x2, f2 = x2, x1, f1
            x1 = u_hi - GOLDEN * (u_hi - u_lo)
            f1 = probe(x1)
        else:
            u_lo, x1, f1 = x1, x2, f2
            x2 = u_lo + GOLDEN * (u_hi - u_lo)
            f2 = probe(x2)


def _parabolic_steps(probe, u_lo, u_hi, tol):
    """Parabolic steps on a three-point bracket, golden-safeguarded.

    Each step probes the vertex of the parabola through the current
    triple, or takes a golden step into the larger sub-interval when the
    vertex is ill-defined, leaves the bracket or lands on an existing
    point.  Returns when the vertex lies within ``tol`` of the best point.
    """
    pts = sorted((u, probe(u)) for u in (u_lo, 0.5 * (u_lo + u_hi), u_hi))
    while True:
        (u1, f1), (u2, f2), (u3, f3) = pts
        yield u1, u3
        denom = (u2 - u1) * (f2 - f3) - (u2 - u3) * (f2 - f1)
        vertex = None
        if denom != 0 and math.isfinite(denom):
            v = u2 - 0.5 * ((u2 - u1) ** 2 * (f2 - f3) - (u2 - u3) ** 2 * (f2 - f1)) / denom
            if math.isfinite(v) and u1 < v < u3:
                vertex = v
        u_best = min(pts, key=lambda p: p[1])[0]
        if vertex is not None and abs(vertex - u_best) <= tol:
            return
        if vertex is None or any(abs(vertex - u) <= 1e-3 * (u3 - u1) for u, _ in pts):
            if (u2 - u1) >= (u3 - u2):
                vertex = u2 - _PARABOLIC_FALLBACK * (u2 - u1)
            else:
                vertex = u2 + _PARABOLIC_FALLBACK * (u3 - u2)
        candidates = sorted(pts + [(vertex, probe(vertex))])
        idx = min(range(4), key=lambda i: candidates[i][1])
        first = min(max(idx - 1, 0), 1)     # the lowest point and its neighbours
        pts = candidates[first : first + 3]


def golden_section(
    obj: McObjective,
    bounds: tuple[float, float],
    tol: float = 0.04,
    max_iter: int = 60,
    integer_beta: bool = False,
) -> BaselineResult:
    """Golden-section search on the cached MC objective over ln beta.

    ``tol`` is the bracket width in ln beta at which to stop (a relative
    tolerance on beta).  Stops as ``bracket``, ``noise-floor`` or, once
    ``max_iter`` distinct probes are spent, ``budget``; every stop returns
    the best probe.
    """
    return _search(obj, bounds, tol, max_iter, integer_beta, "golden-section", _golden_steps)


def parabolic_interpolation(
    obj: McObjective,
    bounds: tuple[float, float],
    tol: float = 0.04,
    max_iter: int = 60,
    integer_beta: bool = False,
) -> BaselineResult:
    """Successive parabolic interpolation over ln beta, golden-safeguarded.

    Stops as ``bracket`` when the three-point bracket is no wider than
    ``tol``, ``converged`` when the next vertex lies within ``tol`` of the
    best point, ``noise-floor``, or, once ``max_iter`` distinct probes are
    spent, ``budget``; every stop returns the best probe.
    """
    return _search(obj, bounds, tol, max_iter, integer_beta, "parabolic",
                   functools.partial(_parabolic_steps, tol=tol))
