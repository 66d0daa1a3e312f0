"""A reference optimum for ``srom-standin`` over C6's bounds [3e7, 8e7].

srom has no closed-form truth: C6 and the benchmark judge a BO run only by
its agreement with golden section.  This script estimates the optimum of
the objective ``E (s - s0)^2`` and its 10% region from ``STREAMS``
independent streams.  Each stream evaluates the statistic ``DRAWS`` times
at each of ``BETAS`` log-spaced betas on common random numbers (the same
generator state at every beta), takes the mean of ``(s - s0)^2`` per beta,
and fits a quadratic in ln beta to those means.  The fit's vertex is the
stream's argmin, and the ln-beta interval where the quadratic is within
10% of its minimum its region.  The streams' spread gives each number's
standard error.  Nothing is gated on it::

    PYTHONPATH=src python tests/srom_reference.py

It takes about two minutes on one core.
"""

import math
import time

import numpy as np

from scalebo import problems

BOUNDS = (3e7, 8e7)
STREAMS = 8
BETAS = 15
DRAWS = 6000
ENTROPY = 20261022   # stream k is SeedSequence(ENTROPY, spawn_key=(k,))
REL = 0.10


def stream_estimate(prob, stream: int) -> tuple[float, float, float]:
    """``(argmin, lo, hi)`` of one stream's quadratic fit in ln beta."""
    seed = np.random.SeedSequence(ENTROPY, spawn_key=(stream,))
    ln_betas = np.linspace(math.log(BOUNDS[0]), math.log(BOUNDS[1]), BETAS)
    means = []
    for ln_beta in ln_betas:
        rng = np.random.default_rng(seed)
        beta = math.exp(ln_beta)
        g = [(prob.evaluate_statistic(beta, rng) - prob.s0) ** 2 for _ in range(DRAWS)]
        means.append(math.fsum(g) / DRAWS)
    center = float(ln_betas.mean())
    c2, c1, c0 = np.polyfit(ln_betas - center, means, 2)
    if not c2 > 0:
        raise RuntimeError(f"stream {stream}: the fitted quadratic has no minimum (c2 = {c2:g})")
    x_min = -c1 / (2 * c2)
    half = math.sqrt(REL * (c0 - c1 * c1 / (4 * c2)) / c2)
    return tuple(math.exp(center + x) for x in (x_min, x_min - half, x_min + half))


def main() -> None:
    prob = problems.srom_standin()
    start = time.perf_counter()
    rows = []
    for stream in range(STREAMS):
        rows.append(stream_estimate(prob, stream))
        argmin, lo, hi = rows[-1]
        print(f"stream {stream}: argmin {argmin:.4e}, region [{lo:.4e}, {hi:.4e}] "
              f"({(hi - lo) / (2 * argmin):.1%} half-width)", flush=True)
    rows = np.array(rows)
    mean = rows.mean(axis=0)
    se = rows.std(axis=0, ddof=1) / math.sqrt(STREAMS)
    for name, m, e in zip(("argmin", "region lo", "region hi"), mean, se):
        print(f"{name}: {m:.4e} +- {e:.2e} ({e / m:.2%} of beta)")
    print(f"{STREAMS} streams x {BETAS} betas x {DRAWS} draws on [{BOUNDS[0]:g}, {BOUNDS[1]:g}] "
          f"in {time.perf_counter() - start:.0f} s")


if __name__ == "__main__":
    main()
