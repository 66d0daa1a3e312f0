"""Batch Thompson-sampling optimization loop with full trace capture.

The driver runs the synchronous loop: evaluate a deterministic
log-equispaced initial design, fit the conjugate log-log model, then per
iteration draw a Thompson batch sized from the posterior's shortfall,
observe the statistic at each proposal, augment the dataset and refit.
It stops on an evaluation budget, when the posterior of the optimizer has
settled (see :func:`run`), or at the first exact fit (noise-free
problems).  Every iteration is recorded in a serializable trace.
"""

from __future__ import annotations

import csv
import json
import math
import reprlib
import time
from dataclasses import dataclass

import numpy as np

from . import acquisition, glm, posterior
from .jsonio import check_count, check_number, from_json, json_safe, write_json
from .posterior import PosteriorSummary
from .problems import ObjectiveProblem, draw_statistics, round_into_bounds

TRACE_SCHEMA = "bo-trace/1"

# s2 below this is an exact interpolation in float64: the surrogate is
# deterministic and further sampling cannot add information.
DEGENERATE_S2 = 1e-24


@dataclass(frozen=True)
class BoConfig:
    """Settings of one optimization run.

    ``batch_size`` is the smallest Thompson batch: a batch grows with the
    record's shortfall, and the run spends at most
    ``n0 + max_iterations * batch_size`` evaluations in at most
    ``max_iterations`` batches (see :func:`run`).  The run stops as
    ``converged`` after ``stop_window`` consecutive settled records (the
    initial fit counts); a window above ``max_iterations`` turns the stop
    off.  ``stop_rel_tol`` is deprecated and read by nothing: it is still
    accepted, finite and > 0, so that configs written for the earlier
    drift rule still parse.
    """

    beta_min: float
    beta_max: float
    s0: float
    n0: int = 40
    batch_size: int = 10
    max_iterations: int = 25
    stop_rel_tol: float = 0.01
    stop_window: int = 2
    seed: int = 0
    integer_beta: bool = False

    def __post_init__(self):
        for name in ("beta_min", "beta_max", "s0", "stop_rel_tol"):
            check_number(name, getattr(self, name), 0.0, above=True)
        # n0 >= 4 leaves two residual degrees of freedom at the first fit.
        for name, minimum in (("n0", 4), ("batch_size", 1), ("max_iterations", 1),
                              ("stop_window", 1), ("seed", 0)):
            check_count(name, getattr(self, name), minimum)
        if not isinstance(self.integer_beta, (bool, np.bool_)):
            raise ValueError(f"integer_beta must be true or false, "
                             f"got {reprlib.repr(self.integer_beta)}")
        if not self.beta_min < self.beta_max:
            raise ValueError("bounds must satisfy 0 < beta_min < beta_max")
        # One integer would make every design point the same beta: a rank-1 first fit.
        if self.integer_beta and math.floor(self.beta_max) - math.ceil(self.beta_min) < 1:
            raise ValueError("integer_beta requires two integers inside [beta_min, beta_max]")

    @property
    def bounds(self) -> tuple[float, float]:
        return (self.beta_min, self.beta_max)


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


@dataclass(frozen=True, kw_only=True)
class BoTrace:
    """Complete optimization history.  The fields are ``trace.json``'s
    keys, in order."""

    schema: str = TRACE_SCHEMA
    config: BoConfig
    problem_label: str = ""
    final_estimate: float
    stop_reason: str           # "budget" | "converged" | "degenerate-fit"
    flag: str | None = None    # None | "unidentified" | "boundary-min" | "boundary-max"
    total_evaluations: int
    rejected_total: int
    wall_clock_seconds: float
    iterations: list[IterationRecord]


def initial_design(config: BoConfig) -> np.ndarray:
    """Log-equispaced initial design of ``n0`` points, endpoints included;
    with ``integer_beta`` each point is rounded by
    :func:`~scalebo.problems.round_into_bounds`, duplicates retained.

    The design is a deterministic grid: a grid maximizes the rank of the
    first fit and keeps runs reproducible.
    """
    grid = np.exp(np.linspace(math.log(config.beta_min), math.log(config.beta_max), config.n0))
    grid[0] = config.beta_min
    grid[-1] = config.beta_max
    if config.integer_beta:
        return np.array([round_into_bounds(b, config.bounds) for b in grid])
    return grid


def run(config: BoConfig, problem: ObjectiveProblem, threads: int = 1) -> BoTrace:
    """Execute the full optimization loop and return its trace.

    Record t (the initial design is record 0) draws its statistics in
    proposal order from one generator, ``default_rng`` of child t of the
    evaluation stream ``SeedSequence(config.seed).spawn(3)[1]``: its draws
    depend only on the seed and t.  The first and last children of the
    root seed the Thompson proposals and the posterior summaries.
    ``threads`` is deprecated and read by nothing: it is still accepted,
    an integer >= 1, so that callers written for the earlier thread pool
    still run.

    A record (the initial fit counts) is *settled*
    (:func:`posterior.stop_reading`) when the exponent a is identified by
    its exact t tail and the 95% beta* interval ``[q025, q975]`` lies
    inside the plug-in objective's 10% optimal region within the bounds.
    The run stops as ``converged`` after ``config.stop_window`` consecutive
    settled records.  The same reading gives the record's *shortfall*, the
    extra usable rows after which the interval is predicted to fit that
    region, and the next Thompson batch holds
    ``max(batch_size, ceil(shortfall / 2))`` proposals, cut to what is
    left of the budget ``n0 + max_iterations * batch_size``; the run stops
    as ``budget`` once that is spent.  Neither reading draws random
    numbers, and the budget does not depend on ``stop_window``, so a
    stopped run's records are the leading records of the same-seed run
    with the stop turned off.  Before that reading, a record whose fit is
    exact (``s2 <= DEGENERATE_S2``), the initial one included, stops the
    run as ``degenerate-fit``.  The trace's ``flag``
    (:func:`posterior.flag`) reads the last record: ``"unidentified"`` when
    a is not identified, ``"boundary-min"`` or ``"boundary-max"`` when the
    beta* interval has collapsed onto that bound.
    """
    check_count("threads", threads, 1)
    start = time.perf_counter()
    acq_ss, eval_ss, summary_ss = np.random.SeedSequence(config.seed).spawn(3)
    acq_rng = np.random.default_rng(acq_ss)
    summary_rng = np.random.default_rng(summary_ss)

    records = []
    rows, fit = np.empty((0, 2)), None   # every (beta, s) drawn so far
    evaluations = rejected_total = streak = 0
    budget = config.n0 + config.max_iterations * config.batch_size
    stop_reason = "budget"
    for t in range(config.max_iterations + 1):
        if t == 0:
            betas_t = [float(b) for b in initial_design(config)]
        else:
            remaining = budget - evaluations
            size = min(remaining, max(config.batch_size, math.ceil(min(shortfall / 2, remaining))))
            betas_t = acquisition.thompson_batch(
                fit, config.s0, size, config.bounds, acq_rng
            ).betas
            if config.integer_beta:
                betas_t = [round_into_bounds(b, config.bounds) for b in betas_t]
        # eval_ss has spawned t children before this one: this is child t.
        s_t = draw_statistics(problem, betas_t, np.random.default_rng(eval_ss.spawn(1)[0]),
                              iteration=t)
        evaluations += len(betas_t)
        rows = np.concatenate([rows, np.array((betas_t, s_t), dtype=float).T])
        data, rejected_so_far = glm.ingest(rows)
        rejected, rejected_total = rejected_so_far - rejected_total, rejected_so_far
        fit = glm.fit(data)
        summary = posterior.summarize(fit, config.s0, config.bounds, summary_rng)
        records.append(
            IterationRecord(
                index=t,
                source="init" if t == 0 else "thompson",
                betas=betas_t,
                s_values=s_t,
                rejected=rejected,
                fit=fit,
                beta_hat=posterior.point_estimate(fit, config.s0, config.bounds),
                posterior=summary,
                cumulative_evaluations=evaluations,
                wall_clock=time.perf_counter() - start,
            )
        )

        if fit.s2 <= DEGENERATE_S2:
            stop_reason = "degenerate-fit"
            break
        settled, shortfall = posterior.stop_reading(fit, summary, config.s0, config.bounds)
        streak = streak + 1 if settled else 0
        if streak >= config.stop_window:
            stop_reason = "converged"
            break
        if evaluations >= budget:
            break

    final = records[-1].beta_hat
    if config.integer_beta:
        final = round_into_bounds(final, config.bounds)
    return BoTrace(
        config=config,
        iterations=records,
        final_estimate=final,
        stop_reason=stop_reason,
        total_evaluations=evaluations,
        rejected_total=rejected_total,
        wall_clock_seconds=time.perf_counter() - start,
        problem_label=problem.label,
        flag=posterior.flag(records[-1].posterior, config.bounds),
    )


# ---------------------------------------------------------------------------
# Trace serialization


def trace_to_json_dict(trace: BoTrace) -> dict:
    """The trace as strict JSON values (:func:`~scalebo.jsonio.json_safe`):
    a non-finite number (a rejected statistic) becomes ``None``."""
    return json_safe(trace)


def save_trace(trace: BoTrace, path) -> None:
    write_json(path, trace)


def load_trace(path) -> BoTrace:
    """Read a trace written by :func:`save_trace` by its fields' types
    (:func:`~scalebo.jsonio.from_json`).  Every refusal names ``path``: a
    ``TypeError`` for an unknown key, else a ``ValueError``.  Files written
    before the posterior stop rule load without a ``flag`` (None) and with a
    NaN ``p_a_positive``."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and doc.get("schema") != TRACE_SCHEMA:
        raise ValueError(f"{path}: unsupported trace schema {reprlib.repr(doc.get('schema'))}")
    return from_json(BoTrace, doc, path)


def trace_to_csv(trace: BoTrace, path) -> None:
    """Flat per-observation trace: ``iteration,beta,s,source`` rows, one
    block per record."""
    write_trace_rows(path, ((rec.index, rec.betas, rec.s_values, rec.source)
                            for rec in trace.iterations))


def write_trace_rows(path, blocks) -> None:
    """Write the trace CSV that :func:`load_trace_csv` reads (UTF-8, LF
    endings, floats by repr).

    Each block ``(iteration, beta, s_values, source)`` is the run of rows
    that share iteration and source; ``s_values`` is a sequence of Python
    floats, and ``beta`` is either the one beta of every row (a Monte-Carlo
    probe) or a list or tuple of one beta per statistic (a BO batch).  A
    block's prefix and suffix are formatted once and the block is one
    join, so a probe of a thousand draws costs one join and one write.  No
    field needs CSV quoting: reprs of floats and the source names hold no
    comma, quote or line break.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("iteration,beta,s,source\n")
        for iteration, beta, s_values, source in blocks:
            if not s_values:
                continue
            if isinstance(beta, (list, tuple)):
                head = f"{iteration},"
                fields = map(",".join, zip(map(repr, map(float, beta)), map(repr, s_values)))
            else:
                head, fields = f"{iteration},{float(beta)!r},", map(repr, s_values)
            tail = f",{source}\n"
            fh.write(head + (tail + head).join(fields) + tail)


def load_trace_csv(path) -> list[tuple[int, float, float, str]]:
    """Read rows written by :func:`trace_to_csv`.  A row that is not four
    fields, or whose iteration, beta or s is no number, raises
    ``ValueError`` naming ``path`` and the line."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["iteration", "beta", "s", "source"]:
            raise ValueError(f"{path}: unexpected trace header {header!r}")
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != 4:
                    raise ValueError(f"{len(row)} fields, not 4")
                rows.append((int(row[0]), float(row[1]), float(row[2]), row[3]))
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return rows
