"""Compare benchmark result files of two commits.

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds result files written by ``run.py`` (by default into
``.perfbench/results/``), one per run; copy them aside per commit.  For
every workload and metric the report gives each side's median and
quartiles over its runs, and a verdict for the head commit:

* ``REGRESSION``: the median is worse than the base median by more than
  the metric's bound from BENCHMARK.json.  Where the spread is wider than
  the bound, this needs every head run to be worse than every base run
  (``REGRESSION (all runs)``);
* ``unresolved``: either side's spread (interquartile range over median)
  is wider than the bound, so the runs cannot tell, unless every head run
  beats every base run (``improved (all runs)``) or the regression above;
* ``improved``: the head wins at least nine tenths of the runs paired by
  seed, ties counting for neither, and the medians differ by more than the
  base's own interquartile range;
* ``same`` otherwise.

Timings are reported at a reference speed (see README.md); their rows
also give each side's median unscaled wall time.  Per-layer metrics have
no bound; their rows show the medians only.  The exit status is 1 when
any end-to-end metric regressed or any head run reports a failed
operation.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MACHINE_KEYS = ("nproc", "cpu", "python", "numpy", "scipy", "blas", "blas_threads")


def load(directory: Path):
    """{(workload, trace): {seed: result}} and the machine notes seen."""
    runs = defaultdict(dict)
    machines = set()
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        runs[(doc["workload"], doc["trace"])][doc["seed"]] = doc
        machines.add(tuple(str(doc["machine"].get(k)) for k in MACHINE_KEYS))
    return runs, machines


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(base: dict, head: dict, spec: dict) -> str:
    """Verdict for one metric; ``base``/``head`` map seed -> value."""
    a, b = list(base.values()), list(head.values())
    sign = 1.0 if spec.get("better", "lower") == "lower" else -1.0
    if "bound" not in spec:
        return ""
    bound = spec["bound"]
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if max(spread(a), spread(b)) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "improved (all runs)"
        if worse > bound and all(sign * (y - x) > 0 for x in a for y in b):
            return "REGRESSION (all runs)"
        return "unresolved"
    if worse > bound:
        return "REGRESSION"
    pairs = [(base[s], head[s]) for s in base.keys() & head.keys()]
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    q1, _, q3 = quartiles(a)
    if pairs and wins >= 0.9 * len(pairs) and abs(med_b - med_a) > q3 - q1:
        return f"improved ({wins}/{len(pairs)} pairs)"
    return "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    args = parser.parse_args(argv)

    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, base_machines = load(args.base)
    head, head_machines = load(args.head)
    if base_machines != head_machines or len(base_machines) > 1:
        print("warning: machine notes differ between or within the two sides:", file=sys.stderr)
        for m in sorted(base_machines | head_machines):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(MACHINE_KEYS, m)), file=sys.stderr)

    regressions = failed = 0
    header = (f"{'metric':44s} {'base q1/med/q3':>32s} {'head q1/med/q3':>32s} {'change':>8s} "
              f"{'wall med base/head':>20s}  verdict")
    for key in sorted(base.keys() & head.keys()):
        workload, trace = key
        print(f"\n== {workload} (trace={trace}): {len(base[key])} base runs, {len(head[key])} head runs")
        print(header)
        names = [n for n in specs if all(n in r["metrics"] for r in [*base[key].values(), *head[key].values()])]
        for name in names:
            a = {s: r["metrics"][name]["value"] for s, r in base[key].items()}
            b = {s: r["metrics"][name]["value"] for s, r in head[key].items()}
            qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            v = verdict(a, b, specs[name])
            regressions += v.startswith("REGRESSION")
            wall = ""
            if all("wall" in r["metrics"][name] for r in [*base[key].values(), *head[key].values()]):
                wall = "/".join(f"{statistics.median(r['metrics'][name]['wall'] for r in side.values()):.4g}"
                                for side in (base[key], head[key]))
            print(f"{name:44s} {'/'.join(f'{x:.4g}' for x in qa):>32s} "
                  f"{'/'.join(f'{x:.4g}' for x in qb):>32s} {change:+8.1%} {wall:>20s}  {v}")
        head_failed = sum(r["failed"] for r in head[key].values())
        failed += head_failed
        if head_failed:
            print(f"head runs report {head_failed} failed operations "
                  f"(base runs: {sum(r['failed'] for r in base[key].values())})")
    for key in sorted(base.keys() ^ head.keys()):
        print(f"\n== {key[0]} (trace={key[1]}): only on one side, not compared")
    return 1 if regressions or failed else 0


if __name__ == "__main__":
    sys.exit(main())
