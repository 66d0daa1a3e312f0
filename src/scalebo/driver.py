"""Batch Thompson-sampling optimization loop with full trace capture.

The driver runs the synchronous loop: evaluate a deterministic
log-equispaced initial design, fit the conjugate log-log model, then per
iteration draw a Thompson batch sized from the posterior's shortfall,
observe the statistic at each proposal, augment the dataset and refit.
It stops on an evaluation budget, when the posterior of the optimizer has
settled, or at the first exact fit (noise-free problems), as
:func:`decide` rules.  Every iteration is recorded in a serializable trace.
"""

from __future__ import annotations

import csv
import json
import math
import reprlib
import time
from dataclasses import InitVar, dataclass

import numpy as np

from . import acquisition, glm, posterior
from .jsonio import check_bounds, check_count, check_number, dumps, from_json, write_csv, write_json
from .posterior import PosteriorSummary
from .problems import ObjectiveProblem, draw_statistics, round_into_bounds

TRACE_SCHEMA = "bo-trace/2"

# The header of both commands' trace.csv, which load_trace_csv checks.
TRACE_CSV_HEADER = ("iteration", "beta", "s", "source")

# s2 below this is an exact interpolation in float64: the surrogate is
# deterministic and further sampling cannot add information.
DEGENERATE_S2 = 1e-24

# The spawn key of each rng stream of a seed; record t's is STREAMS["record"] + (t,).
# A stream's draws depend only on the seed and its key, so no two streams share any.
STREAMS = {"acquisition": (0,), "record": (1,), "summary": (2,), "baseline": (3,)}


def rng_stream(seed: int, key: tuple) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


@dataclass(frozen=True)
class BoConfig:
    """Settings of one optimization run.

    ``s0`` is the problem's target statistic: :func:`run` refuses any other.
    ``batch_size`` is the smallest Thompson batch: a batch grows with the
    record's shortfall, and the run spends at most its budget of
    ``n0 + max_iterations * batch_size`` evaluations in at most
    ``max_iterations`` batches (see :func:`decide`).  The run stops as
    ``converged`` after ``stop_window`` consecutive settled records (the
    initial fit counts); a window above ``max_iterations + 1``, the most
    records a run holds, turns the stop off.  ``stop_rel_tol`` is
    deprecated: it is checked, finite and > 0, so that configs and callers
    written for the earlier drift rule still run, and not kept.
    """

    beta_min: float
    beta_max: float
    s0: float
    n0: int = 40
    batch_size: int = 10
    max_iterations: int = 25
    stop_rel_tol: InitVar[float] = 0.01
    stop_window: int = 2
    seed: int = 0
    integer_beta: bool = False

    def __post_init__(self, stop_rel_tol):
        if not isinstance(self.integer_beta, (bool, np.bool_)):
            raise ValueError(f"integer_beta must be true or false, "
                             f"got {reprlib.repr(self.integer_beta)}")
        check_bounds(self.bounds, self.integer_beta)
        check_number("s0", self.s0, 0.0, above=True)
        check_number("stop_rel_tol", stop_rel_tol, 0.0, above=True)
        # n0 >= 4 leaves two residual degrees of freedom at the first fit.
        for name, minimum in (("n0", 4), ("batch_size", 1), ("max_iterations", 1),
                              ("stop_window", 1), ("seed", 0)):
            check_count(name, getattr(self, name), minimum)

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
    problem_label: str
    final_estimate: float
    stop_reason: str           # "budget" | "converged" | "degenerate-fit"
    flag: str | None           # None | "unidentified" | "boundary-min" | "boundary-max"
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


def decide(config: BoConfig, record: IterationRecord, streak: int) -> tuple[int, str | None, int]:
    """The run's one stop-and-size rule: ``(streak, stop_reason, next_size)``
    after ``record``, given the ``streak`` of settled records before it.  It
    reads only the config and the record's stored fit, summary and
    cumulative evaluations, and draws nothing, so a saved trace replays it.

    An exact fit (``s2 <= DEGENERATE_S2``), the initial one included, stops
    the run as ``degenerate-fit``; ``stop_window`` consecutive *settled*
    records (:func:`posterior.stop_reading`: a is identified and the 95%
    beta* interval lies inside the plug-in objective's 10% region) stop it
    as ``converged``; a spent budget of ``n0 + max_iterations * batch_size``
    evaluations stops it as ``budget``; a stop's ``next_size`` is 0.  Else
    ``stop_reason`` is None and the same reading's *shortfall*, the extra
    usable rows after which the interval is predicted to fit the region,
    sizes the next batch: ``max(batch_size, ceil(shortfall / 2))``, cut to
    what is left of the budget, which ``stop_window`` does not move: a
    stopped run's records lead the same-seed run with the stop turned off.
    """
    if record.fit.s2 <= DEGENERATE_S2:
        return streak, "degenerate-fit", 0
    settled, shortfall = posterior.stop_reading(record.fit, record.posterior, config.s0,
                                                config.bounds)
    streak = streak + 1 if settled else 0
    if streak >= config.stop_window:
        return streak, "converged", 0
    budget = config.n0 + config.max_iterations * config.batch_size
    remaining = budget - record.cumulative_evaluations
    if remaining <= 0:
        return streak, "budget", 0
    return streak, None, min(remaining, max(config.batch_size,
                                            math.ceil(min(shortfall / 2, remaining))))


def run(config: BoConfig, problem: ObjectiveProblem, threads: int = 1) -> BoTrace:
    """Execute the full optimization loop and return its trace: each record
    proposes, draws, fits and summarizes, then :func:`decide` stops the run
    or sizes the next batch.

    Record t (the initial design is record 0) draws its statistics in
    proposal order from one generator, the stream ``(1, t)`` of
    :data:`STREAMS`: its draws depend only on the seed and t.  The
    ``"acquisition"`` and ``"summary"`` streams draw the Thompson proposals
    and the posterior summaries.  ``threads`` is deprecated and read by
    nothing: it is still accepted, an integer >= 1, so that callers written
    for the earlier thread pool still run.  The trace's ``flag`` is
    :func:`posterior.flag` of the last record.  A ``config.s0`` other than
    ``problem.s0`` raises ``ValueError`` naming both, before any draw.
    """
    check_count("threads", threads, 1)
    if config.s0 != problem.s0:
        raise ValueError(f"config s0 {config.s0!r} is not the problem's target "
                         f"s0 {problem.s0!r}")
    start = time.perf_counter()
    acq_rng = rng_stream(config.seed, STREAMS["acquisition"])
    summary_rng = rng_stream(config.seed, STREAMS["summary"])

    records = []
    # Every beta and s drawn so far, in the first columns; grown by doubling.
    drawn = np.empty((2, 4 * config.n0))
    evaluations = rejected_total = streak = 0
    stop_reason = None
    while stop_reason is None:
        t = len(records)
        if t == 0:
            betas_t = [float(b) for b in initial_design(config)]
        else:
            betas_t = acquisition.thompson_batch(fit, config.s0, size, config.bounds, acq_rng).betas
            if config.integer_beta:
                betas_t = [round_into_bounds(b, config.bounds) for b in betas_t]
        s_t = draw_statistics(problem, betas_t, rng_stream(config.seed, STREAMS["record"] + (t,)),
                              iteration=t)
        end = evaluations + len(betas_t)
        if end > drawn.shape[1]:
            drawn = np.concatenate([drawn[:, :evaluations], np.empty((2, end))], axis=1)
        drawn[0, evaluations:end] = betas_t
        drawn[1, evaluations:end] = s_t
        evaluations = end
        data, rejected_so_far = glm.ingest(drawn[:, :evaluations].T)
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
        streak, stop_reason, size = decide(config, records[-1], streak)

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
    """The parse of what :func:`save_trace` writes for ``trace``: a
    non-finite number (a rejected statistic) is ``None``."""
    return json.loads(dumps(trace))


def save_trace(trace: BoTrace, path) -> None:
    write_json(path, trace)


def load_trace(path) -> BoTrace:
    """Read a trace written by :func:`save_trace` by its fields' types
    (:func:`~scalebo.jsonio.from_json`).  Every refusal names ``path``: a
    ``TypeError`` for an unknown key, else a ``ValueError``, among them a
    file of any schema but :data:`TRACE_SCHEMA`."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and doc.get("schema") != TRACE_SCHEMA:
        raise ValueError(f"{path}: unsupported trace schema {reprlib.repr(doc.get('schema'))}")
    return from_json(BoTrace, doc, path)


def trace_to_csv(trace: BoTrace, path) -> None:
    """Flat per-observation trace: ``iteration,beta,s,source`` rows, one
    block per record (:func:`~scalebo.jsonio.write_csv`)."""
    write_csv(path, TRACE_CSV_HEADER, ((rec.index, rec.betas, rec.s_values, rec.source)
                                       for rec in trace.iterations))


def load_trace_csv(path) -> list[tuple[int, float, float, str]]:
    """Read rows written by :func:`trace_to_csv`.  A row that is not four
    fields, or whose iteration, beta or s is no number, raises
    ``ValueError`` naming ``path`` and the line."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(TRACE_CSV_HEADER):
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
