"""Time one set-up in a fresh interpreter, then the host probe.

Set-up is: import `teamsim.cli`, parse and validate each scenario, and build
its `Simulation`. Prints the set-up seconds and the seconds per host-probe
round. Usage:

    python3 perfbench/setup_probe.py SRC_DIR SCENARIO_FILE:POLICY [...]
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import dataclasses  # noqa: E402

import teamsim.cli  # noqa: E402,F401
from teamsim import Simulation, parse_scenario  # noqa: E402

scenarios = {}
for case in sys.argv[2:]:
    path, policy = case.rsplit(":", 1)
    if path not in scenarios:
        scenarios[path] = parse_scenario(path)
    Simulation(dataclasses.replace(scenarios[path], policy_name=policy))
setup = time.perf_counter() - start

import hostprobe  # noqa: E402

print(setup, hostprobe.probe(20))
