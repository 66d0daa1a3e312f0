"""Command-line front end.

Commands
--------
optimize
    Run the surrogate-based optimizer; writes trace.json, trace.csv,
    estimate.json and run.json into the output directory.
baseline
    Run the Monte-Carlo 1-D optimizer on the same config; writes
    trace.csv, probes.csv, estimate.json and run.json.

    Each estimate.json holds ``rounds``, the run's synchronous rounds: the
    records of an optimize run (the initial design included), or the
    probes of a baseline run.
compare
    Tabulate data/time ratios between an optimize run and a baseline run.
diagnose
    Residual diagnostics of a beta,s dataset CSV.
fixture export
    Write the static structural fixture matrices in Matrix Market format.

Exit status: 0 on success, 2 on configuration/usage errors, 3 on runtime
errors.  All randomness stems from the config seed; reruns with the same
config and seed produce byte-identical CSV artifacts.
"""

from __future__ import annotations

import argparse
import functools
import json
import reprlib
import sys
import time
from pathlib import Path

from . import baselines, config, diagnostics, driver, glm, problems
from .errors import ConfigError, InsufficientData, NoEligibleGroups, RankDeficient, ScaleboError
from .jsonio import from_json, is_number, write_csv, write_json

RUN_SCHEMA = "scalebo-run/2"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared, so
    callers must not change it.  Building it costs about as much as a small
    command; the cache pays off only when :func:`main` runs repeatedly in
    one process.  Each command's parser names its ``cmd_*`` function as
    ``handler``, which :func:`main` looks up at call time."""
    parser = argparse.ArgumentParser(prog="scalebo")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the run config (JSON)")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--threads", type=int, default=1,
                        help="deprecated and ignored: statistics are drawn serially (N >= 1)")
    common.add_argument("--out", default=None, help="output directory")

    sub.add_parser("optimize", parents=[common], help="run the surrogate optimizer"
                   ).set_defaults(handler="cmd_optimize")
    sub.add_parser("baseline", parents=[common], help="run the MC 1-D baseline"
                   ).set_defaults(handler="cmd_baseline")

    p_cmp = sub.add_parser("compare", help="compare an optimize run with a baseline run")
    p_cmp.add_argument("bo_dir", help="directory written by 'optimize'")
    p_cmp.add_argument("baseline_dir", help="directory written by 'baseline'")
    p_cmp.add_argument("--out", default=None, help="also write comparison.json here")
    p_cmp.set_defaults(handler="cmd_compare")

    p_diag = sub.add_parser("diagnose", help="residual diagnostics for a beta,s dataset")
    p_diag.add_argument("--data", required=True, help="dataset CSV with header beta,s")
    p_diag.add_argument("--fit", default="self",
                        help="'self' to refit on the dataset, or a path to a fit JSON")
    p_diag.add_argument("--min-per-beta", type=int, default=1000)
    p_diag.add_argument("--window", type=int, default=6)
    p_diag.add_argument("--beta", type=float, default=None,
                        help="beta slice for the family fits (default: largest group)")
    p_diag.add_argument("--out", default=None, help="output directory")
    p_diag.set_defaults(handler="cmd_diagnose")

    p_fix = sub.add_parser("fixture", help="static structural fixture utilities")
    fix_sub = p_fix.add_subparsers(dest="action", required=True)
    p_exp = fix_sub.add_parser("export", help="write K, V, f_E, f_H as Matrix Market files")
    p_exp.add_argument("--out", default=None, help="output directory")
    p_exp.set_defaults(handler="cmd_fixture_export")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # By name at call time: a replaced cmd_* (a test double, a tracer) runs.
        return globals()[args.handler](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ScaleboError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # anything unexpected is a runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _check_flag_count(flag: str, value: int) -> None:
    if value < 1:
        raise ConfigError(f"{flag} must be >= 1, got {value}")


def _load_run_config(args) -> config.RunConfig:
    """The config with the ``--seed`` override applied; a bad ``--threads``
    or ``--seed`` is a usage error, raised before anything is written.
    ``--threads`` is checked and read by nothing else."""
    _check_flag_count("--threads", args.threads)
    return config.load_config(args.config, seed=args.seed)


def _out_dir(out: str) -> Path:
    """The output directory ``out``, made if missing; one that cannot be
    made (``out`` names a file, say) is a usage error."""
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out}: cannot make the output directory: "
                          f"{exc.strerror or exc}") from exc
    return path


def _run_metadata(cfg: config.RunConfig, method: str, extra: dict) -> dict:
    return {
        "schema": RUN_SCHEMA,
        "method": method,
        "problem": cfg.problem_section,
        "bo": cfg.bo,
        "baseline": cfg.baseline,
        **extra,
    }


def cmd_optimize(args) -> int:
    cfg = _load_run_config(args)
    outdir = _out_dir(args.out or "optimize-run")
    trace = driver.run(cfg.bo, cfg.problem)
    driver.save_trace(trace, outdir / "trace.json")
    driver.trace_to_csv(trace, outdir / "trace.csv")
    write_json(outdir / "estimate.json", {
        "beta_hat": trace.final_estimate,
        "evaluations": trace.total_evaluations,
        "rounds": len(trace.iterations),
        "wall_clock_seconds": trace.wall_clock_seconds,
        "flag": trace.flag,
    })
    write_json(outdir / "run.json", _run_metadata(cfg, "surrogate-bo", {
        "stop_reason": trace.stop_reason,
        "flag": trace.flag,
    }))
    print(f"beta_hat = {trace.final_estimate:g} "
          f"({trace.total_evaluations} evaluations, stop: {trace.stop_reason}, "
          f"flag: {trace.flag or 'none'})")
    return 0


def cmd_baseline(args) -> int:
    cfg = _load_run_config(args)
    outdir = _out_dir(args.out or "baseline-run")
    objective = baselines.McObjective(
        problem=cfg.problem,
        mc_samples=cfg.baseline.mc_samples,
        seed=cfg.bo.seed,
    )
    start = time.perf_counter()
    result = getattr(baselines, baselines.METHODS[cfg.baseline.method])(
        objective,
        cfg.bo.bounds,
        tol=cfg.baseline.tol,
        max_iter=cfg.baseline.max_iter,
        integer_beta=cfg.bo.integer_beta,
    )
    wall = time.perf_counter() - start

    write_csv(outdir / "trace.csv", driver.TRACE_CSV_HEADER,
              ((i, p.beta, p.s_draws.tolist(), "mc-probe") for i, p in enumerate(result.probes)))
    write_csv(outdir / "probes.csv", ["order", "beta", "mean", "se", "count"],
              ([i, p.beta, p.mean, p.se, p.s_draws.size] for i, p in enumerate(result.probes)))
    write_json(outdir / "estimate.json", {
        "beta_hat": result.beta_hat,
        "evaluations": result.evaluations_used,
        "rounds": len(result.probes),
        "wall_clock_seconds": wall,
    })
    write_json(outdir / "run.json", _run_metadata(cfg, result.method, {
        "stop_reason": result.stop_reason,
    }))
    print(f"beta_hat = {result.beta_hat:g} "
          f"({result.evaluations_used} evaluations, stop: {result.stop_reason})")
    return 0


# The keys ``compare`` reads from each file of a run directory, with the
# JSON values it accepts (a JSON boolean is a bool, not an int).  Only
# ``flag`` may be absent, and then reads as null: a baseline run has none.
_RUN_DIR_KEYS = {
    "run.json": {
        "problem": ("an object", lambda v: isinstance(v, dict)),
        "method": ("a string", lambda v: isinstance(v, str)),
    },
    "estimate.json": {
        "evaluations": ("a positive integer", lambda v: type(v) is int and is_number(v) and v > 0),
        "wall_clock_seconds": ("a finite number >= 0", lambda v: is_number(v) and v >= 0),
        "flag": ("null, unidentified, boundary-min or boundary-max",
                 lambda v: v in (None, "unidentified", "boundary-min", "boundary-max")),
    },
}


def _read_run_dir(run_dir: Path) -> tuple[dict, dict]:
    """``run.json`` and ``estimate.json`` of a run directory.  A file that
    cannot be read, is not a JSON object, or lacks or holds a bad value of
    a key that ``compare`` reads is a usage error."""
    docs = []
    for name, keys in _RUN_DIR_KEYS.items():
        path = run_dir / name
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read run directory {run_dir}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"malformed {path}: {exc}") from exc
        required = [key for key in keys if key != "flag"]
        if not (isinstance(doc, dict) and all(key in doc for key in required)):
            raise ConfigError(f"malformed {path}: expected a JSON object with "
                              f"{', '.join(required)}")
        for key, (expected, valid) in keys.items():
            if not valid(doc.get(key)):
                raise ConfigError(f"malformed {path}: {key} must be {expected}, "
                                  f"got {reprlib.repr(doc[key])}")
        docs.append(doc)
    return docs[0], docs[1]


def _ratio_cell(ratio: float) -> str:
    """A ratio at one decimal, or at two significant digits where one
    decimal reads 0.0."""
    cell = f"{ratio:.1f}"
    return f"{ratio:#.2g}" if cell == "0.0" else cell


def cmd_compare(args) -> int:
    bo_dir, base_dir = Path(args.bo_dir), Path(args.baseline_dir)
    bo_run, bo_est = _read_run_dir(bo_dir)
    base_run, base_est = _read_run_dir(base_dir)
    problem, other = bo_run["problem"], base_run["problem"]
    if problem != other:
        differ = [key for key in sorted(problem.keys() | other.keys())
                  if key not in problem or key not in other or problem[key] != other[key]]
        raise ConfigError(f"runs solve different problems: they differ in {', '.join(differ)}")
    data_ratio = base_est["evaluations"] / bo_est["evaluations"]
    time_ratio = (
        base_est["wall_clock_seconds"] / bo_est["wall_clock_seconds"]
        if bo_est["wall_clock_seconds"] > 0
        else float("inf")
    )
    rows = [
        ("data_points", bo_est["evaluations"], base_est["evaluations"], _ratio_cell(data_ratio)),
        ("wall_clock_seconds", f"{bo_est['wall_clock_seconds']:.3f}",
         f"{base_est['wall_clock_seconds']:.3f}", _ratio_cell(time_ratio)),
    ]
    outdir = _out_dir(args.out) if args.out else None
    header = ("metric", bo_run["method"], base_run["method"], "ratio")
    widths = [max(len(str(row[i])) for row in [header, *rows]) for i in range(4)]
    for row in [header, *rows]:
        print("  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))
    print("note: ratio = baseline / surrogate, rounded to one decimal, "
          "or to two significant digits where one decimal reads 0.0.")
    flag = bo_est.get("flag")
    if flag is not None:
        print(f"note: the surrogate answer is flagged {flag}; the baseline cannot detect a flag.")
    if outdir is not None:
        write_json(outdir / "comparison.json", {
            "surrogate": {"method": bo_run["method"], **bo_est},
            "baseline": {"method": base_run["method"], **base_est},
            "ratios": {
                "data_points": round(data_ratio, 1),
                "wall_clock_seconds": round(time_ratio, 1),
            },
            "problem": problem,
        })
    return 0


def cmd_diagnose(args) -> int:
    _check_flag_count("--min-per-beta", args.min_per_beta)
    _check_flag_count("--window", args.window)
    data_path = Path(args.data)
    try:
        data, rejected = glm.load_csv(data_path)
    except OSError as exc:
        raise ConfigError(f"cannot read dataset {data_path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"malformed dataset {data_path}: {exc}") from exc

    if args.fit == "self":
        try:
            fit = glm.fit(data)
        except (InsufficientData, RankDeficient) as exc:
            raise ConfigError(f"cannot fit dataset {data_path}: {exc}") from exc
    else:
        try:
            fit = from_json(glm.GlmFit, json.loads(Path(args.fit).read_text(encoding="utf-8")),
                            args.fit)
        except (OSError, ValueError, TypeError) as exc:
            raise ConfigError(f"cannot load fit from {args.fit}: {exc}") from exc

    try:
        report = diagnostics.residual_report(
            fit, data, min_per_beta=args.min_per_beta, window=args.window, fit_beta=args.beta
        )
    except NoEligibleGroups as exc:  # --beta or --min-per-beta selects no group
        raise ConfigError(str(exc)) from exc
    outdir = _out_dir(args.out or "diagnose-run")
    diagnostics.save_report_json(report, outdir / "report.json")
    diagnostics.save_groups_csv(report, outdir / "groups.csv")
    if report.histogram is not None:
        diagnostics.save_histogram_csv(report, outdir / "histogram.csv")
    print(f"{len(report.per_beta)} groups retained, {len(report.dropped)} dropped, "
          f"{rejected} rows rejected at ingestion")
    if report.families is not None:
        print("family ranking:", " > ".join(report.families.ranking))
    return 0


def cmd_fixture_export(args) -> int:
    outdir = _out_dir(args.out or "fixture-export")
    fixture = problems.build_static_fixture()
    for path in problems.export_fixture(fixture, outdir):
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
