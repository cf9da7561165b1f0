"""Set-up probe: ``python3 setup_probe.py <workload> <seed> <tiny 0|1>``.

Imports exomdp, loads the workload's config and builds the MDP of its
first trial, then prints ``time.monotonic()``: the moment a first trial
could start. ``run.py`` starts it several times to measure set-up time.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import exomdp  # noqa: E402,F401 - importing the package is part of set-up
from exomdp.experiment import build_preset, trial_seed  # noqa: E402

from workloads import WORKLOADS, make_config  # noqa: E402

name, seed, tiny = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
config = make_config(ROOT, WORKLOADS[name], seed, tiny)
build_preset(config.domain, config.domain_overrides, trial_seed(config.master_seed, 0))
print(time.monotonic())
