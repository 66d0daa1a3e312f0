"""C6's margin: BO–golden-section agreement on the srom stand-in beyond
C6's own seeds.

C6 (``test_acceptance.py``) asks for agreement on at least 18 of seeds
0-19.  One seed's agreement flips with any change of the run's srom
decisions, so a change that moves them should report how far from that
threshold it lands.  This script counts the agreeing seeds of 0-59 with
C6's own per-seed check (``test_acceptance.c6_agrees``), in blocks of 20,
the first block being C6's, and prints each block's agreement seed by seed
as a string of 0s and 1s beside its count, so that the outputs of two
trees can be diffed seed by seed::

    PYTHONPATH=src python tests/c6_margin.py

Each block takes under a minute on one core.
"""

import time

from scalebo import problems
from test_acceptance import c6_agrees

BLOCKS = (range(0, 20), range(20, 40), range(40, 60))


def main() -> None:
    prob = problems.srom_standin()
    every = ""
    for seeds in BLOCKS:
        start = time.perf_counter()
        agrees = "".join("1" if c6_agrees(prob, seed) else "0" for seed in seeds)
        every += agrees
        print(f"seeds {seeds.start}-{seeds.stop - 1}: {agrees.count('1')}/{len(seeds)} agree "
              f"{agrees} ({time.perf_counter() - start:.0f} s)", flush=True)
    print(f"seeds {BLOCKS[0].start}-{BLOCKS[-1].stop - 1}: {every.count('1')}/{len(every)} agree "
          f"{every}")


if __name__ == "__main__":
    main()
