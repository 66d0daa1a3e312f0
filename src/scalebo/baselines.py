"""Monte-Carlo-averaged 1-D optimization baselines.

These are the conventional methods the surrogate approach is benchmarked
against: estimate the objective at a probe point by averaging
``|s - s0|^2`` over many statistic draws, then drive a scalar optimizer
(golden section, or safeguarded successive parabolic interpolation) over
``ln beta``.  Every probe's draws are cached so the audited cost is
exactly ``mc_samples x distinct probes``.
"""

from __future__ import annotations

import inspect
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, EvaluationFailure
from .problems import ObjectiveProblem

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0          # bracket shrink factor
_PARABOLIC_FALLBACK = 1.0 - GOLDEN             # golden step fraction, ~0.382

# Statistic draws per rng substream; fixed so results are identical for
# any thread count.
_CHUNK = 64


@dataclass(frozen=True)
class ProbeStats:
    """Cached Monte-Carlo estimate of the objective at one beta."""

    beta: float
    mean: float      # mean of |s - s0|^2
    se: float        # standard error of that mean
    count: int
    order: int       # probe index in evaluation order
    s_draws: np.ndarray


@dataclass
class McObjective:
    """Monte-Carlo objective with per-beta caching and an audited counter.

    A beta value is never re-drawn within one objective instance: repeat
    queries hit the cache and leave ``evaluations_used`` unchanged.
    """

    problem: ObjectiveProblem
    mc_samples: int = 1000
    seed: int = 0
    threads: int = 1
    evaluations_used: int = field(init=False, default=0)

    def __post_init__(self):
        from .streams import ChildStreams  # only here: it loads numpy.random, import scalebo does not

        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")
        self._cache: dict[float, ProbeStats] = {}
        self._streams = ChildStreams(np.random.SeedSequence(self.seed))
        self._sized = _takes_size(self.problem.evaluate_statistic)

    @property
    def probes(self) -> list[ProbeStats]:
        """All cached probes in evaluation order."""
        return sorted(self._cache.values(), key=lambda p: p.order)

    def probe(self, beta: float) -> ProbeStats:
        key = float(beta)
        if not (key > 0 and math.isfinite(key)):
            raise ValueError(f"beta must be finite and > 0, got {beta!r}")
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        draws = self._draw_statistics(key)
        g = (draws - self.problem.s0) ** 2
        mean = float(g.mean())
        se = float(g.std(ddof=1) / math.sqrt(g.size)) if g.size > 1 else 0.0
        stats = ProbeStats(
            beta=key,
            mean=mean,
            se=se,
            count=g.size,
            order=len(self._cache),
            s_draws=draws,
        )
        self._cache[key] = stats
        self.evaluations_used += g.size
        return stats

    def _draw_statistics(self, beta: float) -> np.ndarray:
        """mc_samples draws of the statistic, chunked over rng substreams.

        A statistic that takes ``size`` draws each chunk in one call.
        """
        n_chunks = -(-self.mc_samples // _CHUNK)
        rngs = self._streams.spawn(n_chunks)
        sizes = [min(_CHUNK, self.mc_samples - i * _CHUNK) for i in range(n_chunks)]
        statistic = self.problem.evaluate_statistic

        def one_chunk(i):
            rng = rngs[i]
            try:
                if not self._sized:
                    return np.array([float(statistic(beta, rng)) for _ in range(sizes[i])])
                draws = np.asarray(statistic(beta, rng, size=sizes[i]), dtype=float)
                if draws.shape != (sizes[i],):
                    raise ValueError(f"size={sizes[i]} returned shape {draws.shape}")
                return draws
            except Exception as exc:
                raise EvaluationFailure(
                    f"statistic evaluation failed at beta={beta:g}: {exc}", beta=beta
                ) from exc

        if self.threads <= 1 or n_chunks == 1:
            chunks = [one_chunk(i) for i in range(n_chunks)]
        else:
            with ThreadPoolExecutor(max_workers=min(self.threads, n_chunks)) as pool:
                chunks = list(pool.map(one_chunk, range(n_chunks)))
        return np.concatenate(chunks)


def _takes_size(statistic) -> bool:
    """True when the statistic callable accepts numpy's ``size`` keyword."""
    try:
        return "size" in inspect.signature(statistic).parameters
    except (TypeError, ValueError):     # no signature to read: call per draw
        return False


@dataclass(frozen=True)
class BaselineResult:
    method: str
    beta_hat: float
    f_hat: float
    evaluations_used: int
    probes: list[ProbeStats]
    stop_reason: str                     # "bracket" | "noise-floor" | "converged"
    history: list[tuple[float, float, float]]  # (beta_lo, beta_hi, probe beta)


def _probe_beta(u: float, bounds, integer_beta: bool) -> float:
    beta = math.exp(u)
    if integer_beta:
        beta = float(np.rint(beta))
        beta = min(max(beta, math.ceil(bounds[0])), math.floor(bounds[1]))
    return min(max(beta, bounds[0]), bounds[1])


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


def _finish(obj, method, stop_reason, history) -> BaselineResult:
    best = min(obj.probes, key=lambda p: (p.mean, p.order))
    return BaselineResult(
        method=method,
        beta_hat=best.beta,
        f_hat=best.mean,
        evaluations_used=obj.evaluations_used,
        probes=obj.probes,
        stop_reason=stop_reason,
        history=history,
    )


def golden_section(
    obj: McObjective,
    bounds: tuple[float, float],
    tol: float = 0.04,
    max_iter: int = 60,
    integer_beta: bool = False,
) -> BaselineResult:
    """Golden-section search on the cached MC objective over ln beta.

    ``tol`` is the bracket width in ln beta at which to stop (i.e. a
    relative tolerance on beta).  Ties keep the left sub-interval, for
    determinism.  Terminates early at the noise floor; raises
    :class:`BudgetExceeded` if ``max_iter`` distinct probes are exhausted
    with no stopping rule met.
    """
    beta_lo, beta_hi = bounds
    if not (0 < beta_lo < beta_hi < math.inf):
        raise ValueError("bounds must satisfy 0 < beta_min < beta_max < inf")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    u_lo, u_hi = math.log(beta_lo), math.log(beta_hi)
    history: list[tuple[float, float, float]] = []

    def probe(u):
        beta = _probe_beta(u, bounds, integer_beta)
        history.append((math.exp(u_lo), math.exp(u_hi), beta))
        return obj.probe(beta).mean

    x1 = u_hi - GOLDEN * (u_hi - u_lo)
    x2 = u_lo + GOLDEN * (u_hi - u_lo)
    f1 = probe(x1)
    f2 = probe(x2)
    stop_reason = "bracket"
    floor_hits = 0
    while u_hi - u_lo > tol:
        floor_hits = floor_hits + 1 if _noise_floor(obj) else 0
        if floor_hits >= _FLOOR_CONSECUTIVE:
            stop_reason = "noise-floor"
            break
        if len(obj.probes) >= max_iter:
            raise BudgetExceeded(f"golden section exhausted {max_iter} probes")
        if f1 <= f2:
            u_hi, x2, f2 = x2, x1, f1
            x1 = u_hi - GOLDEN * (u_hi - u_lo)
            f1 = probe(x1)
        else:
            u_lo, x1, f1 = x1, x2, f2
            x2 = u_lo + GOLDEN * (u_hi - u_lo)
            f2 = probe(x2)
    return _finish(obj, "golden-section", stop_reason, history)


def parabolic_interpolation(
    obj: McObjective,
    bounds: tuple[float, float],
    tol: float = 0.04,
    max_iter: int = 60,
    integer_beta: bool = False,
) -> BaselineResult:
    """Successive parabolic interpolation over ln beta, golden-safeguarded.

    Keeps a three-point bracket; each step probes the parabola vertex of
    the current triple, falling back to a golden-section step into the
    larger sub-interval whenever the vertex is ill-defined, leaves the
    bracket, or lands on an existing point.  Stops when the bracket is
    narrower than ``tol``, when the proposed vertex coincides with the
    current best point (converged), or at the noise floor.
    """
    beta_lo, beta_hi = bounds
    if not (0 < beta_lo < beta_hi < math.inf):
        raise ValueError("bounds must satisfy 0 < beta_min < beta_max < inf")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    u_a, u_b = math.log(beta_lo), math.log(beta_hi)
    history: list[tuple[float, float, float]] = []

    def probe(u, lo, hi):
        beta = _probe_beta(u, bounds, integer_beta)
        history.append((math.exp(lo), math.exp(hi), beta))
        return obj.probe(beta).mean

    pts = [(u, probe(u, u_a, u_b)) for u in (u_a, 0.5 * (u_a + u_b), u_b)]
    pts.sort()
    stop_reason = None
    floor_hits = 0
    while stop_reason is None:
        (u1, f1), (u2, f2), (u3, f3) = pts
        if u3 - u1 <= tol:
            stop_reason = "bracket"
            break
        floor_hits = floor_hits + 1 if _noise_floor(obj) else 0
        if floor_hits >= _FLOOR_CONSECUTIVE:
            stop_reason = "noise-floor"
            break
        if len(obj.probes) >= max_iter:
            raise BudgetExceeded(f"parabolic interpolation exhausted {max_iter} probes")

        denom = (u2 - u1) * (f2 - f3) - (u2 - u3) * (f2 - f1)
        vertex = None
        if denom != 0 and math.isfinite(denom):
            v = u2 - 0.5 * ((u2 - u1) ** 2 * (f2 - f3) - (u2 - u3) ** 2 * (f2 - f1)) / denom
            if math.isfinite(v) and u1 < v < u3:
                vertex = v
        u_best = min(pts, key=lambda p: p[1])[0]
        if vertex is not None and abs(vertex - u_best) <= tol:
            stop_reason = "converged"
            break
        if vertex is None or any(abs(vertex - u) <= 1e-3 * (u3 - u1) for u, _ in pts):
            # Golden step into the larger sub-interval.
            if (u2 - u1) >= (u3 - u2):
                vertex = u2 - _PARABOLIC_FALLBACK * (u2 - u1)
            else:
                vertex = u2 + _PARABOLIC_FALLBACK * (u3 - u2)
        fv = probe(vertex, u1, u3)
        candidates = sorted(pts + [(vertex, fv)])
        idx = min(range(4), key=lambda i: candidates[i][1])
        if idx == 0:
            pts = candidates[:3]
        elif idx == 3:
            pts = candidates[1:]
        else:
            pts = candidates[idx - 1 : idx + 2]
    return _finish(obj, "parabolic", stop_reason, history)
