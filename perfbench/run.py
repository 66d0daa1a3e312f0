"""scalebo benchmark: one workload per process, every answer checked.

    python3 perfbench/run.py --workload calibrated|srom|cli --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src/`` directory and nowhere else.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced pass
(see README.md in this directory).  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A
full result file, with sample counts and machine notes, goes to
``.perfbench/results/``; ``compare.py`` reads those files.
"""

import os

# One BLAS thread: the workloads' matrices are small, and a second BLAS
# thread only adds spinning and run-to-run noise on a 2-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOAD_NAMES = ("calibrated", "srom", "cli")
SETUP_REPEATS = 7
# Rounds over the same operations in an end-to-end run: operations of the
# kinds a workload does not spread over the rounds run once per round, and
# every repeat must reproduce the first run's output.
ROUNDS = 3
# The machines this runs on are shared: on a 2-vCPU Xeon VM the same
# operation ran up to 1.7x slower from one second to the next, and whole
# runs up to 1.5x slower for minutes.  A speed probe is timed before each
# operation, and each call's wall time is divided by the probes around it
# (spans.Stopwatch.ratios).  An operation's time is the median of its
# repeats; timings are reported at a reference speed, as the median (or
# tail) over operations of those ratios times REFERENCE_PROBE_S.  The
# unscaled wall times stay in the result file.
REFERENCE_PROBE_S = {"mix": 2.5e-3, "qr": 2.5e-3}
# A tail is the highest whole percentile with at least TAIL_BEYOND
# operations beyond it (nearest rank); the median when there are too few.
TAIL_BEYOND = 10

TIMING_NOTE = (
    "per-process wall clock (time.perf_counter) only: no CPU pinning, no frequency "
    "control, no cache dropping; BLAS limited to 1 thread by this benchmark"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in (0, 120]")
    return args


# -- summaries ----------------------------------------------------------------


def median(values):
    return float(statistics.median(values))


def tail(values) -> tuple[int, float]:
    """Highest whole percentile with TAIL_BEYOND values above it (nearest
    rank); the median when there are too few values for any."""
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 50, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    return 50, median(ordered)


def metric(value, unit, n, stat, **extra):
    return {"value": float(value), "unit": unit, "n": n, "stat": stat, **extra}


def timing(name, watch, call, op_kind, kind, with_tail):
    """Median (and tail) over operations of the time of their calls named
    ``call`` at the reference speed of the ``kind`` probe (see
    ``Stopwatch.ratios``).  ``wall`` is the same statistic unscaled."""
    ops = watch.ratios(call, op_kind, kind)
    ms = [1e3 * REFERENCE_PROBE_S[kind] * median(r) for r, _ in ops.values()]
    wall = [1e3 * median(w) for _, w in ops.values()]
    out = {f"{name}_p50": metric(median(ms), "ms", len(ms), "median", wall=median(wall))}
    if with_tail:
        p, value = tail(ms)
        out[f"{name}_tail"] = metric(value, "ms", len(ms), f"p{p}", wall=tail(wall)[1])
    return out


# -- machine notes ------------------------------------------------------------


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    lines = out.stdout.split()
    if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        return lines[1]
    return "unknown (not a git checkout)"


def machine_notes():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "commit": git_commit(),
        "timing": TIMING_NOTE,
    }


# -- runs ---------------------------------------------------------------------


def setup_seconds(config_path: Path, mode: str) -> tuple[list[float], list[float]]:
    """Import-and-build time, measured inside SETUP_REPEATS fresh processes:
    the times at the reference speed, each set against a speed probe timed
    just before and just after its process, and the unscaled times."""
    from spans import speed_probe

    scaled, wall = [], []
    before = speed_probe()
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), str(SRC), str(config_path), mode],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        after = speed_probe()
        wall.append(float(out.stdout.split()[-1]))
        scaled.append(REFERENCE_PROBE_S["mix"] * wall[-1] / ((before + after) / 2))
        before = after
    return scaled, wall


def end_to_end(pass_):
    from scalebo import baselines, cli, driver
    from spans import Stopwatch, patched

    setup, setup_wall = setup_seconds(pass_.config_path, "library" if pass_.workload.rates.get("bo") else "cli")
    kind = pass_.workload.probe
    watch = Stopwatch(kinds=sorted({"mix", kind}))
    with patched([(driver, "run", watch.wrap("driver.run", driver.run)),
                  (baselines, "golden_section", watch.wrap("golden_section", baselines.golden_section)),
                  (cli, "main", watch.wrap("cli.main", cli.main))]):
        tally = pass_.run(rounds=ROUNDS, recorder=watch)
        watch.finish()
    pass_.thread_check(tally)

    tally.speed_probe_ms = {k: 1e3 * median(v) for k, v in watch.probes.items()}
    metrics = {"setup_s": metric(median(setup), "s", len(setup), "median", wall=median(setup_wall))}
    metrics.update(timing("bo_run_ms", watch, "driver.run", None, kind, True))
    metrics["bo_evals_p50"] = metric(median(tally.bo_evals), "count", len(tally.bo_evals), "median")
    metrics["bo_hit_rate"] = metric(statistics.fmean(tally.bo_hits), "ratio", len(tally.bo_hits), "mean")
    metrics.update(timing("gs_run_ms", watch, "golden_section", None, kind, True))
    metrics["gs_evals_p50"] = metric(median(tally.gs_evals), "count", len(tally.gs_evals), "median")
    metrics["gs_hit_rate"] = metric(statistics.fmean(tally.gs_hits), "ratio", len(tally.gs_hits), "mean")
    metrics["data_ratio"] = metric(median(tally.ratios), "ratio", len(tally.ratios), "median")
    # diagnose fits residual families to a CSV; it never evaluates the problem.
    for command, probe in (("optimize", kind), ("baseline", kind), ("diagnose", "mix")):
        metrics.update(timing(f"cli_{command}_ms", watch, "cli.main", f"cli-{command}", probe, False))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = metric(rss_mb, "MB", 1, "max")
    return metrics, tally


def per_layer(pass_):
    from scalebo import problems
    from spans import Tracer, patched
    from workloads import trace_targets, traced_problem

    # One round untraced, then one traced over the same operations.
    plain = pass_.run()
    tracer = Tracer()
    problems.build_static_fixture.cache_clear()
    with patched(trace_targets(tracer)):
        # One fresh fixture build on every workload, so its time is measured
        # even where the workload's problem does not need the fixture.
        problems.build_static_fixture()
        traced = pass_.run(problem=traced_problem(tracer, pass_.problem), recorder=tracer)
    pass_.thread_check(traced)
    tracer.save(OUT / f"spans-{pass_.workload.name}.npz")

    bo_root, gs_root = "driver.run", "baselines.golden_section"
    layers = tracer.layer_times(roots=(bo_root, gs_root))
    c = tracer.counts

    def layer(name):
        return layers.get(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0,
                                 "self_ms_under": {bo_root: 0.0, gs_root: 0.0}})

    def share(num, den):
        return num / den if den else 0.0

    n_ops = traced.attempted
    values = {}
    for name, fields in [
        ("glm.fit", ("calls", "self_ms")),
        ("glm.sample_posterior", ("calls", "self_ms")),
        ("glm.ingest", ("self_ms",)),
        ("acquisition.thompson_batch", ("calls", "self_ms")),
        ("acquisition.log_argmin", ("calls", "self_ms")),
        ("driver.run", ("calls", "ms", "self_ms")),
        ("driver.save_trace", ("ms",)),
        ("driver.trace_to_csv", ("ms",)),
        ("driver.load_trace", ("ms",)),
        ("problems.evaluate_statistic", ("calls", "self_ms")),
        ("problems.build_static_fixture", ("ms",)),
        ("baselines.probe", ("calls", "self_ms")),
        ("baselines.golden_section", ("ms", "self_ms")),
        ("cli.optimize", ("self_ms",)),
        ("cli.baseline", ("self_ms",)),
        ("cli.compare", ("self_ms",)),
        ("cli.diagnose", ("self_ms",)),
        ("diagnostics.residual_report", ("ms",)),
        ("diagnostics.fit_residual_families", ("ms",)),
        ("config.load_config", ("ms",)),
        ("config.build_problem", ("ms",)),
    ]:
        for f in fields:
            unit = "count" if f == "calls" else "ms"
            values[f"{name}.{f}"] = (layer(name)[f], unit)
    evaluate = layer("problems.evaluate_statistic")
    bo_ms, gs_ms = layer(bo_root)["ms"], layer(gs_root)["ms"]
    surrogate_ms = sum(v["self_ms_under"].get(bo_root, 0.0) for k, v in layers.items()
                       if k.split(".")[0] in ("glm", "acquisition", "driver"))
    values.update({
        "glm.sample_posterior.draws": (c["glm.sample_posterior.draws"], "count"),
        "glm.ingest.rejected": (c["glm.ingest.rejected"], "count"),
        "acquisition.draws_per_proposal": (
            share(c["acquisition.thompson_draws"], c["acquisition.proposals"]), "ratio"),
        "acquisition.clamped_share": (share(c["acquisition.clamped"], c["acquisition.proposals"]), "ratio"),
        "driver.run.iterations": (c["driver.run.iterations"], "count"),
        "problems.evaluate_statistic.us_per_call": (
            share(1e3 * evaluate["self_ms"], evaluate["calls"]), "us"),
        "problems.evaluate_statistic.bo_share": (share(evaluate["self_ms_under"][bo_root], bo_ms), "ratio"),
        "problems.evaluate_statistic.gs_share": (share(evaluate["self_ms_under"][gs_root], gs_ms), "ratio"),
        "driver.run.surrogate_share": (share(surrogate_ms, bo_ms), "ratio"),
        "baselines.probe.cache_hits": (c["baselines.probe.cache_hits"], "count"),
        "cli.artifact_bytes": (traced.artifact_bytes, "bytes"),
        "trace.overhead_share": (share(traced.wall_s - plain.wall_s, plain.wall_s), "ratio"),
    })
    metrics = {name: metric(v, unit, n_ops, "total over the traced pass") for name, (v, unit) in values.items()}
    # Failures of the untraced pass count too.
    traced.attempted += plain.attempted
    traced.failures += plain.failures
    return metrics, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "scalebo" / "__init__.py").is_file():
        print(f"error: no scalebo package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import scalebo

    if not Path(scalebo.__file__).resolve().is_relative_to(SRC):
        print(f"error: scalebo was imported from {scalebo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Pass

    workload = WORKLOADS[args.workload]
    workdir = OUT / "work" / f"{workload.name}-{os.getpid()}"
    try:
        pass_ = Pass(workload, args.seed, args.seconds, workdir)
        measure = per_layer if args.trace else end_to_end
        metrics, tally = measure(pass_)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_notes(),
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "error_rate": len(tally.failures) / tally.attempted,
        "failures": tally.failures,
        "measured_s": tally.wall_s,
        "speed_probe_ms": tally.speed_probe_ms,
        "reference_probe_ms": {k: 1e3 * v for k, v in REFERENCE_PROBE_S.items()},
        "metrics": metrics,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{workload.name}-trace{args.trace}-seed{args.seed}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    for failure in tally.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"# {workload.name} seed={args.seed} trace={args.trace}: {tally.attempted} operations, "
          f"{len(tally.failures)} failed (error_rate {result['error_rate']:.4f}), "
          f"{tally.wall_s:.1f} s measured; result file {path.relative_to(ROOT)}")
    for kind, probe_ms in (tally.speed_probe_ms or {}).items():
        print(f"# timings in ms at reference speed: {kind} speed probe {probe_ms:.4f} ms, "
              f"reference {1e3 * REFERENCE_PROBE_S[kind]:.4f} ms")
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:14.6g} {m['unit']:6s} {m['stat']} of n={m['n']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": tally.attempted,
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
