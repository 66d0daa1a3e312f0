"""C6's margin: BO–golden-section agreement on the srom stand-in beyond
C6's own seeds.

C6 (``test_acceptance.py``) asks for agreement on at least 18 of seeds
0-19.  One seed's agreement flips with any change of the run's srom
decisions, so a change that moves them should report how far from that
threshold it lands.  This script counts the agreeing seeds of 0-59 with
C6's own per-seed check (``test_acceptance.c6_agrees``), in blocks of 20,
the first block being C6's::

    PYTHONPATH=src python tests/c6_margin.py

Each block takes under a minute on one core.
"""

import time

from scalebo import problems
from test_acceptance import c6_agrees

BLOCKS = (range(0, 20), range(20, 40), range(40, 60))


def main() -> None:
    prob = problems.srom_standin()
    total = 0
    for seeds in BLOCKS:
        start = time.perf_counter()
        agree = sum(c6_agrees(prob, seed) for seed in seeds)
        total += agree
        print(f"seeds {seeds.start}-{seeds.stop - 1}: {agree}/{len(seeds)} agree "
              f"({time.perf_counter() - start:.0f} s)", flush=True)
    seen = sum(len(seeds) for seeds in BLOCKS)
    print(f"seeds {BLOCKS[0].start}-{BLOCKS[-1].stop - 1}: {total}/{seen} agree")


if __name__ == "__main__":
    main()
