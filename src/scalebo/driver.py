"""Batch Thompson-sampling optimization loop with full trace capture.

The driver runs the synchronous loop: evaluate a deterministic
log-equispaced initial design, fit the conjugate log-log model, then per
iteration draw a Thompson batch, observe the statistic at each proposal,
augment the dataset and refit.  It stops on an evaluation budget, on
convergence of the plug-in point estimate, or when the fit becomes an
exact interpolation (noise-free problems).  Every iteration is recorded
in a serializable trace.
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import acquisition, glm
from .errors import DegenerateExponent, DegenerateVariance, EvaluationFailure
from .jsonio import json_safe, write_json
from .problems import ObjectiveProblem

TRACE_SCHEMA = "bo-trace/1"

# s2 below this is an exact interpolation in float64: the surrogate is
# deterministic and further sampling cannot add information.
DEGENERATE_S2 = 1e-24

# Posterior draws behind each per-iteration beta* summary.
SUMMARY_DRAWS = 500


@dataclass(frozen=True)
class BoConfig:
    """Settings of one optimization run."""

    beta_min: float
    beta_max: float
    s0: float
    n0: int = 40
    batch_size: int = 10
    max_iterations: int = 25
    stop_rel_tol: float = 0.01
    stop_window: int = 3
    seed: int = 0
    integer_beta: bool = False

    def __post_init__(self):
        if not (0 < self.beta_min < self.beta_max < math.inf):
            raise ValueError("bounds must satisfy 0 < beta_min < beta_max < inf")
        if not (self.s0 > 0 and math.isfinite(self.s0)):
            raise ValueError("s0 must be finite and > 0")
        if self.n0 < 4:
            raise ValueError("n0 must be >= 4 (two residual degrees of freedom at the first fit)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (self.stop_rel_tol > 0):
            raise ValueError("stop_rel_tol must be > 0")
        if self.stop_window < 1:
            raise ValueError("stop_window must be >= 1")
        if self.integer_beta and math.floor(self.beta_max) < math.ceil(self.beta_min):
            raise ValueError("integer_beta requires an integer inside [beta_min, beta_max]")

    @property
    def bounds(self) -> tuple[float, float]:
        return (self.beta_min, self.beta_max)


@dataclass(frozen=True)
class PosteriorSummary:
    """Quantiles of the clamped optimizer posterior beta* | data."""

    q025: float
    q500: float
    q975: float
    draws: int

    @property
    def width(self) -> float:
        return self.q975 - self.q025


@dataclass(frozen=True)
class IterationRecord:
    index: int                 # 0 = initial design, then 1..T
    source: str                # "init" or "thompson"
    betas: list[float]
    s_values: list[float]
    rejected: int
    fit: glm.GlmFit
    beta_hat: float
    posterior: PosteriorSummary
    cumulative_evaluations: int
    wall_clock: float


@dataclass(frozen=True)
class BoTrace:
    """Complete optimization history."""

    config: BoConfig
    iterations: list[IterationRecord]
    final_estimate: float
    stop_reason: str           # "budget" | "converged" | "degenerate-fit"
    total_evaluations: int
    rejected_total: int
    wall_clock_seconds: float
    problem_label: str = ""
    schema: str = TRACE_SCHEMA


def log_grid(beta_min: float, beta_max: float, count: int, integer_beta: bool = False) -> np.ndarray:
    """Geometric grid of ``count`` points on [beta_min, beta_max], endpoints
    included; with ``integer_beta`` each point is rounded to the nearest
    integer, duplicates retained."""
    if count < 1:
        raise ValueError("count must be >= 1")
    grid = np.exp(np.linspace(math.log(beta_min), math.log(beta_max), count))
    grid[0] = beta_min
    grid[-1] = beta_max
    if integer_beta:
        grid = np.rint(grid)
    return grid


def initial_design(config: BoConfig) -> np.ndarray:
    """Log-equispaced initial design, endpoints included.

    The design is a deterministic grid: a grid maximizes the rank of the
    first fit and keeps runs reproducible.
    """
    return log_grid(config.beta_min, config.beta_max, config.n0, config.integer_beta)


def point_estimate(fit: glm.GlmFit, s0: float) -> float:
    """Plug-in optimizer from the classical estimate.

    Builds the induced objective from (a_hat, exp(ln_b_hat)) with the
    residual variance standing in for eps2 and returns its closed-form
    argmin.  Raises :class:`DegenerateExponent` when a_hat is numerically
    zero.
    """
    obj = acquisition.SurrogateObjective(
        a=fit.a_hat, b=math.exp(fit.ln_b_hat), eps2=fit.s2, s0=s0
    )
    beta_star, _ = acquisition.argmin_closed_form(obj)
    return beta_star


def run(config: BoConfig, problem: ObjectiveProblem, threads: int = 1) -> BoTrace:
    """Execute the full optimization loop and return its trace.

    Statistic evaluations inside one batch may run concurrently (bounded
    by ``threads``); each evaluation owns a pre-assigned child rng stream,
    so results are bit-identical for any thread count.
    """
    start = time.perf_counter()
    root = np.random.SeedSequence(config.seed)
    acq_ss, eval_ss, summary_ss = root.spawn(3)
    acq_rng = np.random.default_rng(acq_ss)
    summary_rng = np.random.default_rng(summary_ss)

    design = [float(b) for b in initial_design(config)]
    s_init = _evaluate_all(problem, design, eval_ss, threads, iteration=0)
    data, rejected_total = glm.ingest(zip(design, s_init))
    evaluations = len(design)

    fit = glm.fit(data)
    beta_hat = _clamped_point_estimate(fit, config)
    records = [
        IterationRecord(
            index=0,
            source="init",
            betas=design,
            s_values=s_init,
            rejected=rejected_total,
            fit=fit,
            beta_hat=beta_hat,
            posterior=_posterior_summary(fit, config, summary_rng),
            cumulative_evaluations=evaluations,
            wall_clock=time.perf_counter() - start,
        )
    ]

    stop_reason = "budget"
    streak = 0
    for t in range(1, config.max_iterations + 1):
        try:
            batch = acquisition.thompson_batch(
                fit, config.s0, config.batch_size, config.bounds, acq_rng
            )
        except DegenerateVariance:
            stop_reason = "degenerate-fit"
            break
        betas_t = batch.betas
        if config.integer_beta:
            betas_t = [_round_into_bounds(b, config) for b in betas_t]
        s_t = _evaluate_all(problem, betas_t, eval_ss, threads, iteration=t)
        evaluations += len(betas_t)
        new_data, rejected = glm.ingest(zip(betas_t, s_t))
        rejected_total += rejected
        data = data.with_observations(new_data.beta, new_data.s)
        fit = glm.fit(data)

        prev = beta_hat
        beta_hat = _clamped_point_estimate(fit, config)
        records.append(
            IterationRecord(
                index=t,
                source="thompson",
                betas=betas_t,
                s_values=s_t,
                rejected=rejected,
                fit=fit,
                beta_hat=beta_hat,
                posterior=_posterior_summary(fit, config, summary_rng),
                cumulative_evaluations=evaluations,
                wall_clock=time.perf_counter() - start,
            )
        )

        if abs(beta_hat - prev) < config.stop_rel_tol * abs(prev):
            streak += 1
        else:
            streak = 0
        if streak >= config.stop_window:
            stop_reason = "converged"
            break
        if fit.s2 <= DEGENERATE_S2:
            stop_reason = "degenerate-fit"
            break

    final = records[-1].beta_hat
    if config.integer_beta:
        final = _round_into_bounds(final, config)
    return BoTrace(
        config=config,
        iterations=records,
        final_estimate=final,
        stop_reason=stop_reason,
        total_evaluations=evaluations,
        rejected_total=rejected_total,
        wall_clock_seconds=time.perf_counter() - start,
        problem_label=problem.label,
    )


def _evaluate_all(problem, betas, eval_ss, threads, iteration):
    """Evaluate the statistic at each beta with per-point rng streams."""
    children = eval_ss.spawn(len(betas))
    rngs = [np.random.default_rng(child) for child in children]

    def one(i):
        try:
            value = float(problem.evaluate_statistic(betas[i], rngs[i]))
        except Exception as exc:
            raise EvaluationFailure(
                f"statistic evaluation failed at beta={betas[i]:g} (iteration {iteration}): {exc}",
                iteration=iteration,
                beta=betas[i],
            ) from exc
        return value

    if threads <= 1 or len(betas) == 1:
        return [one(i) for i in range(len(betas))]
    with ThreadPoolExecutor(max_workers=min(threads, len(betas))) as pool:
        return list(pool.map(one, range(len(betas))))


def _clamped_point_estimate(fit: glm.GlmFit, config: BoConfig) -> float:
    """Point estimate projected onto the feasible interval (in log space);
    raises :class:`DegenerateExponent` when a_hat is numerically zero."""
    ln_star = acquisition.log_argmin(fit.a_hat, fit.ln_b_hat, fit.s2, config.s0)
    beta, _ = acquisition.clamp_log(ln_star, config.bounds)
    if math.isnan(beta):
        raise DegenerateExponent(f"exponent a = {fit.a_hat:g} is numerically zero")
    return float(beta)


def _round_into_bounds(beta: float, config: BoConfig) -> float:
    rounded = float(np.rint(beta))
    return min(max(rounded, math.ceil(config.beta_min)), math.floor(config.beta_max))


def _posterior_summary(fit: glm.GlmFit, config: BoConfig, rng) -> PosteriorSummary:
    """2.5/50/97.5 quantiles of beta* | data, clamped into bounds."""
    if fit.s2 <= 0.0:
        pe = _clamped_point_estimate(fit, config)
        return PosteriorSummary(q025=pe, q500=pe, q975=pe, draws=0)
    ln_star = acquisition.log_argmin(*glm.sample_posterior(fit, SUMMARY_DRAWS, rng), config.s0)
    values, _ = acquisition.clamp_log(ln_star[~np.isnan(ln_star)], config.bounds)
    if values.size == 0:
        pe = _clamped_point_estimate(fit, config)
        return PosteriorSummary(q025=pe, q500=pe, q975=pe, draws=0)
    q025, q500, q975 = _linear_quantiles(values, [0.025, 0.5, 0.975])
    return PosteriorSummary(q025=float(q025), q500=float(q500), q975=float(q975), draws=int(values.size))


def _linear_quantiles(values: np.ndarray, probs) -> np.ndarray:
    """``np.quantile(values, probs)`` bit for bit (method ``linear``), from one sort."""
    ordered = np.sort(values)
    virtual = (ordered.size - 1) * np.asarray(probs, dtype=float)
    lo = np.floor(virtual).astype(np.intp)
    t = virtual - lo
    below, above = ordered[lo], ordered[np.minimum(lo + 1, ordered.size - 1)]
    diff = above - below
    return np.where(t >= 0.5, above - diff * (1 - t), below + diff * t)


# ---------------------------------------------------------------------------
# Trace serialization


def trace_to_json_dict(trace: BoTrace) -> dict:
    """The trace as strict JSON values: a non-finite number (a rejected
    statistic) becomes ``None``."""
    return json_safe({
        "schema": trace.schema,
        "config": asdict(trace.config),
        "problem_label": trace.problem_label,
        "final_estimate": trace.final_estimate,
        "stop_reason": trace.stop_reason,
        "total_evaluations": trace.total_evaluations,
        "rejected_total": trace.rejected_total,
        "wall_clock_seconds": trace.wall_clock_seconds,
        "iterations": [
            {
                "index": rec.index,
                "source": rec.source,
                "betas": list(rec.betas),
                "s_values": list(rec.s_values),
                "rejected": rec.rejected,
                "fit": rec.fit.to_json_dict(),
                "beta_hat": rec.beta_hat,
                "posterior": asdict(rec.posterior),
                "cumulative_evaluations": rec.cumulative_evaluations,
                "wall_clock": rec.wall_clock,
            }
            for rec in trace.iterations
        ],
    })


def save_trace(trace: BoTrace, path) -> None:
    write_json(path, trace_to_json_dict(trace))


def load_trace(path) -> BoTrace:
    """Read a trace written by :func:`save_trace`; a ``null`` statistic
    reads as NaN, and files with bare ``NaN`` tokens still load."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != TRACE_SCHEMA:
        raise ValueError(f"{path}: unsupported trace schema {doc.get('schema')!r}")
    records = [
        IterationRecord(
            index=item["index"],
            source=item["source"],
            betas=[float(b) for b in item["betas"]],
            s_values=np.asarray(item["s_values"], dtype=float).tolist(),   # null -> NaN
            rejected=item["rejected"],
            fit=glm.GlmFit.from_json_dict(item["fit"]),
            beta_hat=float(item["beta_hat"]),
            posterior=PosteriorSummary(**item["posterior"]),
            cumulative_evaluations=item["cumulative_evaluations"],
            wall_clock=float(item["wall_clock"]),
        )
        for item in doc["iterations"]
    ]
    return BoTrace(
        config=BoConfig(**doc["config"]),
        iterations=records,
        final_estimate=float(doc["final_estimate"]),
        stop_reason=doc["stop_reason"],
        total_evaluations=int(doc["total_evaluations"]),
        rejected_total=int(doc["rejected_total"]),
        wall_clock_seconds=float(doc["wall_clock_seconds"]),
        problem_label=doc.get("problem_label", ""),
    )


def trace_to_csv(trace: BoTrace, path) -> None:
    """Flat per-observation trace: ``iteration,beta,s,source`` rows."""
    write_trace_rows(path, ((rec.index, beta, s, rec.source) for rec in trace.iterations
                            for beta, s in zip(rec.betas, rec.s_values)))


def write_trace_rows(path, rows) -> None:
    """Write ``(iteration, beta, s, source)`` rows as the trace CSV that
    :func:`load_trace_csv` reads (UTF-8, LF endings, floats by repr)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "beta", "s", "source"])
        for iteration, beta, s, source in rows:
            writer.writerow([iteration, repr(float(beta)), repr(float(s)), source])


def load_trace_csv(path) -> list[tuple[int, float, float, str]]:
    """Read rows written by :func:`trace_to_csv`."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["iteration", "beta", "s", "source"]:
            raise ValueError(f"{path}: unexpected trace header {header!r}")
        for row in reader:
            if not row:
                continue
            rows.append((int(row[0]), float(row[1]), float(row[2]), row[3]))
    return rows
