"""Workloads of the scalebo benchmark: inputs, operations and output checks.

A workload is one problem with its optimizer settings.  A pass over a
workload runs three kinds of operation, each counted as attempted and,
if it raises, exits non-zero or fails an output check, as failed:

* direct ``driver.run`` calls (BO runs) on the workload's problem;
* direct ``baselines.golden_section`` calls (GS runs) on a disjoint seed set;
* CLI cycles: in-process ``cli.main`` calls to ``optimize``, ``baseline``,
  ``compare`` and ``diagnose`` on a generated config and dataset CSVs.

A pass may repeat its operations in rounds; every repeat must reproduce
the first run's output.  Every input (seed sets, config file, datasets)
derives from the benchmark seed, and the number of operations from the
measured seconds, so the same ``--seed`` and ``--seconds`` repeat the
same work exactly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from scalebo import acquisition, baselines, cli, config, diagnostics, driver, glm, problems

# Acceptance-criterion settings (tests/test_acceptance.py): C4 for the
# calibrated problem, C6 for the structural stand-in.
C4_BO = {"beta_min": 10.0, "beta_max": 1000.0, "n0": 40, "batch_size": 10, "max_iterations": 25}
C4_BASELINE = {"method": "golden", "mc_samples": 1000, "tol": 0.04, "max_iter": 60}
C6_BO = {**C4_BO, "beta_min": 3e7, "beta_max": 8e7, "stop_rel_tol": 0.004}
C6_BASELINE = {"method": "golden", "mc_samples": 400, "tol": 0.015, "max_iter": 50}

CALIBRATED = {"kind": "synthetic-powerlaw", "a": -0.58, "ln_b": 0.0, "eps2": 0.25, "beta_opt": 101.0}
GAMMA_NOISE = {"kind": "gamma-noise", "a": -0.5, "ln_b": 0.2, "shape": 4.0, "s0": 0.3}

STOP_REASONS = {"budget", "converged", "degenerate-fit"}
CLI_COMMANDS = ("optimize", "baseline", "compare", "diagnose")

# Rows per beta in the diagnose dataset (C7: 3 betas x 1200 rows).
DIAG_ROWS = 1200
# Monte-Carlo draws per side of C6's common-random-numbers agreement check.
PAIRED_DRAWS = 500
# BO runs judged against each GS run where estimates are judged in pairs
# (C6): direct BO run j is paired with GS run j modulo the number of GS runs.
JUDGED_PER_GS = 3
# Relative objective agreement, and the optimal-region width (C4, C6).
REGION_REL = 0.10


@dataclass(frozen=True)
class Workload:
    name: str
    problem: dict              # config "problem" section
    bo: dict                   # config "bo" section
    baseline: dict             # config "baseline" section
    threads: int               # evaluation threads (the CLI's --threads) of timed operations
    rates: dict                # distinct operations per measured second, by kind
    diag_betas: tuple[float, float, float]
    gamma_ranking: bool = False          # diagnose must rank gamma above gaussian
    once: frozenset = frozenset()        # kinds that run once, spread over the rounds
    probe: str = "mix"                   # speed probe for operations that evaluate the problem
    check_threads: int = 0               # untimed rerun of one CLI cycle at this --threads

    def counts(self, seconds: float) -> dict:
        """Distinct operations per round, by kind (``compare`` follows
        ``optimize`` and ``baseline``)."""
        return {kind: max(1, round(self.rates[kind] * seconds)) if self.rates.get(kind) else 0
                for kind in ("bo", "gs", "optimize", "baseline", "diagnose")}


def cli_rates(per_s: float) -> dict:
    return {"optimize": per_s, "baseline": per_s, "diagnose": per_s}


# Rates are set so that three rounds take about the measured seconds on a
# 2-core x86 machine.  They are fixed numbers, not a time limit, so that a
# faster commit runs the same seeds and its exact counts stay comparable.
WORKLOADS = {
    # 2 us simulator: BO time is surrogate arithmetic, GS time is per-call
    # overhead over ~11,500 statistic calls.
    "calibrated": Workload("calibrated", CALIBRATED, C4_BO, C4_BASELINE, threads=1,
                           rates={"bo": 2.0, "gs": 2.0, **cli_rates(0.67)},
                           diag_betas=(20.0, 60.0, 180.0)),
    # 0.4 ms statistic (QR of a 1000x8 matrix): GS time is nearly all
    # simulator, BO time about half.  A GS run costs ~1.7 s, so GS runs and
    # CLI baselines run once each, spread over the rounds; so do BO runs and
    # CLI optimize runs, whose time depends on the seed through the number
    # of iterations, so that a run covers more seeds.
    "srom": Workload("srom", {"kind": "srom-standin"}, C6_BO, C6_BASELINE, threads=1,
                     rates={"bo": 1.67, "gs": 0.23, "optimize": 1.5, "baseline": 0.1, "diagnose": 0.67},
                     diag_betas=(3e7, 5e7, 8e7), once=frozenset({"bo", "gs", "optimize", "baseline"}),
                     probe="qr"),
    # Misspecified noise, CLI only, with artifact writes beside compute.
    # Timed at --threads 1: with two evaluation threads on a two-core
    # machine, run time follows the load on the other core, which no
    # probe run beside the operations could follow.  The threaded
    # evaluation path is still run, untimed, and checked against it.
    "cli": Workload("cli", GAMMA_NOISE, C4_BO, C4_BASELINE, threads=1,
                    rates=cli_rates(1.4), diag_betas=(20.0, 60.0, 180.0), gamma_ranking=True,
                    check_threads=2),
}


# The calibrated settings cut down to a few milliseconds, for warming up.
WARM_UP = {
    "seed": 0,
    "problem": CALIBRATED,
    "bo": {**C4_BO, "n0": 10, "max_iterations": 2},
    "baseline": {**C4_BASELINE, "mc_samples": 50},
}


class CheckFailed(Exception):
    """An operation returned an output that fails the benchmark's check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(path: Path):
    """Parse ``path`` as strict JSON: NaN and Infinity are rejected."""
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


class Judge:
    """Reference check of an estimate: does it solve the problem?

    Problems with a known objective use its 10% optimal region, each
    estimate on its own.  The structural stand-in has no known optimum, so
    a BO estimate and its paired GS estimate are judged together (C6):
    their Monte-Carlo objectives, on common random numbers, agree within
    10% both ways.
    """

    def __init__(self, workload: Workload, problem: problems.ObjectiveProblem):
        self.problem = problem
        kind = workload.problem["kind"]
        self.paired = kind == "srom-standin"
        if kind == "synthetic-powerlaw":
            t = problem.truth
            obj = acquisition.SurrogateObjective(a=t.a, b=t.b, eps2=t.eps2, s0=problem.s0)
            self.region = acquisition.optimal_region(obj, REGION_REL)
        elif kind == "gamma-noise":
            self.region = gamma_noise_region(workload.problem)

    def hit(self, beta: float) -> bool:
        return self.region[0] <= beta <= self.region[1]

    def agree(self, beta_bo: float, beta_gs: float, seed: int) -> bool:
        f = []
        for beta in (beta_bo, beta_gs):
            rng = np.random.default_rng(seed)
            draws = [self.problem.evaluate_statistic(beta, rng) for _ in range(PAIRED_DRAWS)]
            f.append(float(np.mean((np.asarray(draws) - self.problem.s0) ** 2)))
        return f[0] <= (1 + REGION_REL) * f[1] and f[1] <= (1 + REGION_REL) * f[0]


def gamma_noise_region(p: dict) -> tuple[float, float]:
    """10% optimal region of the gamma-noise objective, in closed form.

    With s = c * zeta, c = exp(ln_b) beta^a and zeta ~ Gamma(k, 1/k),
    E|s - s0|^2 = (1 + 1/k) c^2 - 2 s0 c + s0^2, minimal at
    c* = s0 k / (k + 1) with value s0^2 / (k + 1); it stays within 10% of
    that for |c - c*| <= s0 sqrt(0.1 k) / (k + 1).
    """
    k, s0 = p["shape"], p["s0"]
    c_star = s0 * k / (k + 1)
    dc = s0 * math.sqrt(REGION_REL * k) / (k + 1)
    edges = [((c / math.exp(p["ln_b"])) ** (1.0 / p["a"])) for c in (c_star - dc, c_star + dc)]
    return min(edges), max(edges)


@dataclass
class Tally:
    """Everything one pass measured.

    Quality figures come from the first round; later rounds repeat the
    same operations and must reproduce their outputs exactly.
    """

    recorder: object = None    # Stopwatch or Tracer; told which operation runs
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    bo_evals: list[int] = field(default_factory=list)
    gs_evals: list[int] = field(default_factory=list)
    bo_hits: list[bool] = field(default_factory=list)
    gs_hits: list[bool] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)   # GS / BO evaluations per pair
    artifact_bytes: int = 0
    outputs: dict = field(default_factory=dict)    # first output of each operation
    wall_s: float = 0.0
    speed_probe_ms: dict | None = None    # median speed probe by kind, in an end-to-end pass

    def attempt(self, key, label: str, fn, *args):
        """Run one operation; a raise or failed check is recorded, not raised."""
        self.attempted += 1
        if self.recorder is not None:
            self.recorder.begin(key)
        try:
            return fn(*args)
        except Exception as exc:  # the benchmark reports every failure and goes on
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None


class Pass:
    """One workload's inputs, and the operations that run on them."""

    def __init__(self, workload: Workload, seed: int, seconds: float, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.problem = config.build_problem(workload.problem)
        self.judge = Judge(workload, self.problem)
        self.bounds = (workload.bo["beta_min"], workload.bo["beta_max"])
        workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = workdir / "run.json"
        self.config_path.write_text(json.dumps({
            "seed": seed,
            "problem": workload.problem,
            "bo": workload.bo,
            "baseline": workload.baseline,
        }))
        self.counts = workload.counts(seconds)
        # One dataset per diagnose operation: the family fits' run time
        # depends on the residual sample, so one shared dataset would make
        # cli_diagnose_ms a property of the seed.  Each dataset is drawn
        # without replacement from one pool of statistics per beta, because
        # a pool of srom statistics already costs a few seconds.
        rng = np.random.default_rng([seed, 1])
        pool = {beta: [self.problem.evaluate_statistic(beta, rng) for _ in range(2 * DIAG_ROWS)]
                for beta in workload.diag_betas}
        self.data_paths = []
        for j in range(self.counts["diagnose"]):
            pick = np.random.default_rng([seed, 2, j])
            pairs = [(beta, s) for beta, values in pool.items()
                     for s in pick.choice(values, DIAG_ROWS, replace=False)]
            self.data_paths.append(workdir / f"data{j}.csv")
            glm.save_csv(glm.ingest(pairs)[0], self.data_paths[-1])
        warm_up(workdir / "warm-up")

    # Seed sets: disjoint ranges per operation kind, 10,000 apart per benchmark seed.
    def bo_seed(self, j):
        return 10_000 * self.seed + j

    def gs_seed(self, j):
        return 10_000 * self.seed + 5_000 + j

    def cli_seed(self, j):
        return 10_000 * self.seed + 8_000 + j

    def run(self, rounds=1, problem=None, recorder=None) -> Tally:
        """Run every operation ``rounds`` times over, in rounds.

        ``problem`` overrides the workload's problem (the traced pass passes
        a wrapped one).  Repeats at the same seed must give identical
        outputs; a difference is a failure of the repeated operation.
        """
        counts = self.counts
        tally = Tally(recorder=recorder)
        start = perf_counter()
        first = {}
        for r in range(rounds):
            for key, out in self.round(tally, problem or self.problem, r, rounds).items():
                if key not in first:
                    first[key] = out
                elif out != first[key]:
                    tally.failures.append(f"{key}: output of repeat {r} differs from the first run")
        tally.wall_s = perf_counter() - start
        tally.outputs = first

        def outputs(kind, n):
            return [first.get((kind, j)) for j in range(n)]

        bo, gs = outputs("bo", counts["bo"]), outputs("gs", counts["gs"])
        cli_bo = outputs("cli-optimize", counts["optimize"])
        cli_gs = outputs("cli-baseline", counts["baseline"])
        n_direct = min(len(bo), JUDGED_PER_GS * len(gs))
        pairs = [(bo[j], gs[j % len(gs)], self.bo_seed(j)) for j in range(n_direct)]
        pairs += [(b, g, self.cli_seed(j)) for j, (b, g) in enumerate(zip(cli_bo, cli_gs))]
        self.score(tally, [b for b in bo + cli_bo if b], [g for g in gs + cli_gs if g], pairs)
        return tally

    def score(self, tally: Tally, bo: list, gs: list, pairs: list) -> None:
        """Quality figures of BO and GS outputs ``(beta, evaluations, ...)``.

        ``pairs`` are the ``(bo, gs, seed)`` runs judged together where the
        judge is paired, None where a run failed.  For the evaluation ratio
        every BO run takes a GS partner, cyclically where BO runs outnumber
        GS runs.
        """
        tally.bo_evals = [b[1] for b in bo]
        tally.gs_evals = [g[1] for g in gs]
        if gs:
            tally.ratios = [gs[j % len(gs)][1] / b[1] for j, b in enumerate(bo)]
        if not self.judge.paired:
            tally.bo_hits = [self.judge.hit(b[0]) for b in bo]
            tally.gs_hits = [self.judge.hit(g[0]) for g in gs]
            return
        for b, g, seed in pairs:
            if b is not None and g is not None:
                both = self.judge.agree(b[0], g[0], seed)
                tally.bo_hits.append(both)
                tally.gs_hits.append(both)

    def round(self, tally: Tally, problem, r: int, rounds: int) -> dict:
        """Round ``r`` of ``rounds``; returns each operation's output summary.

        Kinds in ``workload.once`` run once per pass, operation ``j`` in
        round ``j % rounds``, so that they do not bunch up in one round and
        leave the repeats of the other operations close together in time.
        """
        once = self.workload.once

        def runs(kind, j):
            return j < self.counts.get(kind, 0) and (kind not in once or j % rounds == r)

        out = {}
        for j in range(max(self.counts["bo"], self.counts["gs"])):
            if runs("bo", j):
                out[("bo", j)] = tally.attempt(("bo", j), f"bo seed={self.bo_seed(j)}", self.bo_run, problem, j)
            if runs("gs", j):
                out[("gs", j)] = tally.attempt(("gs", j), f"gs seed={self.gs_seed(j)}", self.gs_run, problem, j)
        for j in range(max(self.counts["optimize"], self.counts["baseline"], self.counts["diagnose"])):
            commands = [c for c in CLI_COMMANDS if runs(c, j)]
            if "optimize" in commands and "baseline" in commands:
                commands.insert(2, "compare")
            out.update(self.cli_cycle(tally, j, r, commands))
        return {k: v for k, v in out.items() if v is not None}

    def bo_run(self, problem, j):
        cfg = driver.BoConfig(s0=problem.s0, seed=self.bo_seed(j), **self.workload.bo)
        trace = driver.run(cfg, problem, threads=self.workload.threads)
        beta = trace.final_estimate
        require(math.isfinite(beta) and self.bounds[0] <= beta <= self.bounds[1],
                f"estimate {beta!r} outside {self.bounds}")
        require(trace.total_evaluations == sum(len(r.betas) for r in trace.iterations),
                "total_evaluations disagrees with the iteration records")
        require(trace.stop_reason in STOP_REASONS, f"unknown stop reason {trace.stop_reason!r}")
        return beta, trace.total_evaluations

    def gs_run(self, problem, j):
        b = self.workload.baseline
        obj = baselines.McObjective(problem=problem, mc_samples=b["mc_samples"],
                                    seed=self.gs_seed(j), threads=self.workload.threads)
        result = baselines.golden_section(obj, self.bounds, tol=b["tol"], max_iter=b["max_iter"])
        beta = result.beta_hat
        require(math.isfinite(beta) and self.bounds[0] <= beta <= self.bounds[1],
                f"estimate {beta!r} outside {self.bounds}")
        require(result.evaluations_used == b["mc_samples"] * len(result.probes),
                "evaluations_used is not mc_samples x probes")
        return beta, result.evaluations_used

    # -- CLI ---------------------------------------------------------------

    def thread_check(self, tally: Tally) -> None:
        """Rerun the first CLI ``optimize`` and ``baseline`` untimed, at
        ``--threads workload.check_threads``.  Evaluation on a thread pool
        draws every statistic from a pre-assigned stream, so it must write
        the same estimates and the same ``trace.csv`` and ``probes.csv``
        bytes as the timed runs."""
        threads = self.workload.check_threads
        if not threads:
            return
        out = self.cli_cycle(tally, 0, "threads", ["optimize", "baseline"], threads=threads)
        for key, summary in out.items():
            if summary is not None and summary != tally.outputs.get(key):
                tally.failures.append(f"cli {key[0]} seed={self.cli_seed(0)} --threads {threads}: "
                                      f"output differs from --threads {self.workload.threads}")

    def cli_cycle(self, tally: Tally, j: int, r, commands, threads=None) -> dict:
        """The given CLI ``commands`` at one seed, in round ``r``."""
        seed = self.cli_seed(j)
        dirs = {c: self.workdir / f"r{r}-c{j}-{c}" for c in CLI_COMMANDS}
        common = ["--config", str(self.config_path), "--seed", str(seed),
                  "--threads", str(threads or self.workload.threads)]
        argv = {
            "optimize": lambda: ["optimize", *common, "--out", str(dirs["optimize"])],
            "baseline": lambda: ["baseline", *common, "--out", str(dirs["baseline"])],
            "compare": lambda: ["compare", str(dirs["optimize"]), str(dirs["baseline"]),
                                "--out", str(dirs["compare"])],
            "diagnose": lambda: ["diagnose", "--data", str(self.data_paths[j]),
                                 "--out", str(dirs["diagnose"])],
        }
        checks = {
            "optimize": self.check_optimize,
            "baseline": self.check_baseline,
            "compare": self.check_compare,
            "diagnose": self.check_diagnose,
        }
        out = {}
        for command in commands:
            key = (f"cli-{command}", j)
            out[key] = tally.attempt(key, f"cli {command} seed={seed}", self.cli_command,
                                     argv[command](), checks[command], dirs)
        if r == 0:
            tally.artifact_bytes += sum(f.stat().st_size for d in dirs.values() if d.is_dir()
                                        for f in d.iterdir())
        for path in dirs.values():
            shutil.rmtree(path, ignore_errors=True)
        return out

    @staticmethod
    def cli_command(argv, check, dirs):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        require(code == 0, f"exit code {code}: {sink.getvalue().strip()[-300:]}")
        return check(dirs)

    # Each check returns what a repeat at the same seed must reproduce; the
    # optimize and baseline summaries start with (beta_hat, evaluations).

    def check_optimize(self, dirs):
        out = dirs["optimize"]
        doc = strict_json(out / "trace.json")
        estimate = strict_json(out / "estimate.json")
        strict_json(out / "run.json")
        trace = driver.load_trace(out / "trace.json")
        require(driver.trace_to_json_dict(trace) == doc, "trace.json does not round-trip through load_trace")
        require(estimate["evaluations"] == trace.total_evaluations, "estimate.json evaluations != trace")
        require(self.bounds[0] <= estimate["beta_hat"] <= self.bounds[1], "estimate outside bounds")
        return (estimate["beta_hat"], estimate["evaluations"],
                hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest())

    def check_baseline(self, dirs):
        out = dirs["baseline"]
        estimate = strict_json(out / "estimate.json")
        strict_json(out / "run.json")
        require(self.bounds[0] <= estimate["beta_hat"] <= self.bounds[1], "estimate outside bounds")
        require(estimate["evaluations"] % self.workload.baseline["mc_samples"] == 0,
                "evaluations is not a multiple of mc_samples")
        return (estimate["beta_hat"], estimate["evaluations"],
                hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest(),
                (out / "probes.csv").read_bytes())

    def check_compare(self, dirs):
        doc = strict_json(dirs["compare"] / "comparison.json")
        bo = strict_json(dirs["optimize"] / "estimate.json")
        gs = strict_json(dirs["baseline"] / "estimate.json")
        want_data = round(gs["evaluations"] / bo["evaluations"], 1)
        want_time = round(gs["wall_clock_seconds"] / bo["wall_clock_seconds"], 1)
        require(doc["ratios"] == {"data_points": want_data, "wall_clock_seconds": want_time},
                f"comparison ratios {doc['ratios']} != estimates ({want_data}, {want_time})")
        return doc["ratios"]["data_points"]

    def check_diagnose(self, dirs):
        report = strict_json(dirs["diagnose"] / "report.json")
        ranking = report["families"]["ranking"]
        require(sorted(ranking) == ["gamma", "gaussian", "shifted_lognormal"],
                f"unexpected family ranking {ranking}")
        if self.workload.gamma_ranking:
            require(ranking.index("gamma") < ranking.index("gaussian"),
                    f"gamma-noise data ranked {ranking}")
        return ranking, (dirs["diagnose"] / "groups.csv").read_bytes()


def warm_up(workdir: Path) -> None:
    """Run each CLI command once on a tiny problem before anything is timed.

    The first call in a process pays lazy imports and first-call set-up
    (SciPy's distributions, LAPACK) that later calls do not; set-up time is
    measured on its own, in fresh processes.
    """
    workdir.mkdir(parents=True)
    config_path = workdir / "run.json"
    config_path.write_text(json.dumps(WARM_UP))
    problem = config.build_problem(CALIBRATED)
    rng = np.random.default_rng(0)
    pairs = [(beta, problem.evaluate_statistic(beta, rng)) for beta in (20.0, 180.0) for _ in range(1000)]
    glm.save_csv(glm.ingest(pairs)[0], workdir / "data.csv")
    common = ["--config", str(config_path), "--threads", "1"]
    for argv in (["optimize", *common, "--out", str(workdir / "o")],
                 ["baseline", *common, "--out", str(workdir / "b")],
                 ["compare", str(workdir / "o"), str(workdir / "b")],
                 ["diagnose", "--data", str(workdir / "data.csv"), "--out", str(workdir / "d")]):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        require(code == 0, f"warm-up {argv[0]} exited {code}: {sink.getvalue().strip()[-300:]}")
    shutil.rmtree(workdir)


def traced_problem(tracer, problem: problems.ObjectiveProblem) -> problems.ObjectiveProblem:
    """``problem`` with its statistic callable recorded as a span."""
    return dataclasses.replace(
        problem, evaluate_statistic=tracer.wrap("problems.evaluate_statistic", problem.evaluate_statistic)
    )


def trace_targets(tracer) -> list:
    """Attribute replacements that put a span around each layer's public calls."""
    counts = tracer.counts

    def on_sample(args, kwargs, result, parent):
        n = args[1] if len(args) > 1 else kwargs["count"]
        counts["glm.sample_posterior.draws"] += n
        if parent == "acquisition.thompson_batch":
            counts["acquisition.thompson_draws"] += n

    def on_batch(args, kwargs, result, parent):
        counts["acquisition.proposals"] += args[2] if len(args) > 2 else kwargs["batch_size"]
        counts["acquisition.clamped"] += result.clamped_count

    def on_ingest(args, kwargs, result, parent):
        counts["glm.ingest.rejected"] += result[1]

    def on_run(args, kwargs, result, parent):
        counts["driver.run.iterations"] += len(result.iterations) - 1

    probe = baselines.McObjective.probe

    def counting_probe(obj, beta):
        before = obj.evaluations_used
        stats = probe(obj, beta)
        counts["baselines.probe.cache_hits"] += obj.evaluations_used == before
        return stats

    build_problem = config.build_problem

    def build_traced_problem(section):
        return traced_problem(tracer, build_problem(section))

    w = tracer.wrap
    return [
        (glm, "fit", w("glm.fit", glm.fit)),
        (glm, "sample_posterior", w("glm.sample_posterior", glm.sample_posterior, on_sample)),
        (glm, "ingest", w("glm.ingest", glm.ingest, on_ingest)),
        (acquisition, "thompson_batch", w("acquisition.thompson_batch", acquisition.thompson_batch, on_batch)),
        (acquisition, "log_argmin", w("acquisition.log_argmin", acquisition.log_argmin)),
        (driver, "run", w("driver.run", driver.run, on_run)),
        (driver, "save_trace", w("driver.save_trace", driver.save_trace)),
        (driver, "trace_to_csv", w("driver.trace_to_csv", driver.trace_to_csv)),
        (driver, "load_trace", w("driver.load_trace", driver.load_trace)),
        (problems, "build_static_fixture", w("problems.build_static_fixture", problems.build_static_fixture)),
        (baselines.McObjective, "probe", w("baselines.probe", counting_probe)),
        (baselines, "golden_section", w("baselines.golden_section", baselines.golden_section)),
        (cli, "cmd_optimize", w("cli.optimize", cli.cmd_optimize)),
        (cli, "cmd_baseline", w("cli.baseline", cli.cmd_baseline)),
        (cli, "cmd_compare", w("cli.compare", cli.cmd_compare)),
        (cli, "cmd_diagnose", w("cli.diagnose", cli.cmd_diagnose)),
        (diagnostics, "residual_report", w("diagnostics.residual_report", diagnostics.residual_report)),
        (diagnostics, "fit_residual_families",
         w("diagnostics.fit_residual_families", diagnostics.fit_residual_families)),
        (config, "load_config", w("config.load_config", config.load_config)),
        (config, "build_problem", w("config.build_problem", build_traced_problem)),
    ]
