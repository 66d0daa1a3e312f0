"""Set-up probe: run by run.py in a fresh process, several times per run.

Times importing scalebo and building one workload's problem (the static
fixture on srom) and prints the seconds:

    python3 perfbench/setup_child.py SRC_DIR CONFIG_PATH library|cli

Both modes build the problem with ``config.build_problem``, as the
workloads do.  ``library`` hands it the config's ``problem`` section
directly; ``cli`` first parses the config file with ``config.load_config``,
as every CLI command does.
"""

from time import perf_counter

START = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

if __name__ == "__main__":
    src, config_path, mode = sys.argv[1:4]
    sys.path.insert(0, src)
    import scalebo  # noqa: F401
    from scalebo import config

    if mode == "cli":
        config.build_problem(config.load_config(config_path).problem_section)
    else:
        with open(config_path, encoding="utf-8") as fh:
            config.build_problem(json.load(fh)["problem"])
    print(perf_counter() - START)
