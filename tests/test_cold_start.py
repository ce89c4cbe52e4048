"""A deterministic call loads only the modules it runs, and importing the CLI
generates no code per class.

`run`, `report` and `compare` under `no_comm`, `fixed_steps` and
`c2c_heuristic` send no adapter request and decide in one thread, so the
model-backed components of `teamsim.llm`, the adapter and its prompts, the
HTTP stack, the thread pool and OpenSSL hashing stay unloaded; all but
hashing load on first use. So does PyYAML: `config` reads the shipped,
hand-written scenarios and the `scenario.yaml` a run writes itself, and
imports PyYAML for the first text in neither style. Each case runs in a fresh
interpreter and compares `sys.modules` with a snapshot taken before `teamsim`
is imported, so whatever `site` loads on a given machine does not count.

`import teamsim.cli` is counted in bytecode instructions, with the
standard-library modules it loads imported first and the import
system's own frames left out, since those vary with `sys.path` and the
install mode. On CPython 3.11.7 it executed 227,706 while `dataclasses`
generated the methods of 16 of teamsim's classes, and 123,505 once those
became named tuples and `__slots__` classes with written-out `__init__`s
(the same with and without cached bytecode, under `-X dev` and under hash
seeds 0, 1 and 12345); 123,109 once the model-backed policy, planner and
evaluator left `policy`, `planner` and `engine` for `teamsim.llm`; 123,133
once `config` wrote and read a run's `scenario.yaml` itself; 118,226 once
`config` no longer imported PyYAML nor built its loader and dumper classes
at import (PyYAML's own import, loaded before the count began, was never
counted). The bound is that reading rounded up to the next hundred; one
class built by `dataclasses` again costs several thousand.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from conftest import refused_port

ROOT = Path(__file__).resolve().parent.parent
SIMPLE = str(ROOT / "scenarios" / "simple.yaml")
DETERMINISTIC = ("no_comm", "fixed_steps", "c2c_heuristic")

# Modules a deterministic call never executes.
UNUSED = ("teamsim.llm", "teamsim.adapter", "teamsim.prompts", "urllib.request",
          "http.client", "email.parser", "ssl", "socket", "concurrent.futures",
          "hashlib", "yaml")
IMPORT_INSTRUCTIONS_BOUND = 118_300

PRELUDE = f"""
import contextlib, io, json, sys
before = set(sys.modules)
args = json.loads(sys.argv[1])

def loaded():
    return sorted(m for m in {UNUSED!r} if m in sys.modules and m not in before)
"""


def _last_line(script: str, argument: object):
    """The JSON value `script` prints last in a fresh interpreter, which gets
    `argument` as JSON in `sys.argv[1]`."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", script, json.dumps(argument)],
                            env=env, capture_output=True, text=True,
                            timeout=120, check=False)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def _loaded_after(body: str, **args) -> list[str]:
    """The modules of UNUSED that `body` loads in a fresh interpreter."""
    script = PRELUDE + textwrap.dedent(body) + "\nprint(json.dumps(loaded()))\n"
    return _last_line(script, args)


def test_deterministic_cli_calls_load_no_unused_module(tmp_path):
    body = """
    from teamsim.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        for scenario in args["scenarios"]:
            for policy in args["policies"]:
                out = f"{args['out']}/{policy}"
                assert main(["run", "--scenario", scenario,
                             "--policy", policy, "--out", out]) == 0
                assert main(["report", "--run", out]) == 0
            assert main(["compare", "--scenario", scenario,
                         "--policies", ",".join(args["policies"]),
                         "--out", f"{args['out']}/compare"]) == 0
    """
    shipped = sorted(str(path) for path in (ROOT / "scenarios").glob("*.yaml"))
    assert _loaded_after(body, scenarios=shipped, policies=DETERMINISTIC,
                         out=str(tmp_path)) == []


# A c2c_llm run whose adapter answers every request with an empty object: the
# policy and the planner fall back to their deterministic paths.
LLM_RUN = """
import dataclasses
from teamsim.config import parse_scenario
from teamsim.engine import run_scenario

class StubAdapter:
    def complete_json(self, messages):
        return {}

scenario = dataclasses.replace(parse_scenario(args["scenario"]), policy_name="c2c_llm")
assert not loaded(), loaded()
assert run_scenario(scenario, adapter=StubAdapter()).completed
"""


@pytest.mark.parametrize("first_use,module", [
    ("""
    from teamsim.config import parse_scenario
    from teamsim.engine import run_scenario

    assert not loaded(), loaded()
    run_scenario(parse_scenario(args["scenario"]), parallel_decide=True)
    """, "concurrent.futures"),
    ("""
    from teamsim.adapter import AdapterError, ChatCompletionAdapter

    assert loaded() == ["teamsim.adapter"], loaded()
    adapter = ChatCompletionAdapter(f"http://127.0.0.1:{args['port']}", "m",
                                    max_retries=0)
    try:
        adapter.complete([{"role": "user", "content": "ping"}])
    except AdapterError:
        pass
    """, "urllib.request"),
    (LLM_RUN, "teamsim.llm"),
    (LLM_RUN, "teamsim.adapter"),
    (LLM_RUN, "teamsim.prompts"),
    ("""
    from pathlib import Path
    from teamsim.config import parse_scenario_text

    text = Path(args["scenario"]).read_text(encoding="utf-8")
    parse_scenario_text(text)
    assert not loaded(), loaded()
    parse_scenario_text("# a comment, which only PyYAML reads\\n" + text)
    """, "yaml"),
], ids=["parallel_decide", "adapter_request", "llm_run_llm", "llm_run_adapter",
        "llm_run_prompts", "commented_scenario"])
def test_first_use_loads_the_module(first_use, module):
    assert module in _loaded_after(first_use, scenario=SIMPLE, port=refused_port())


# Prints the modules outside teamsim that `import teamsim.cli` loads.
DEPENDENCIES = """
import json, sys
before = set(sys.modules)
import teamsim.cli
print(json.dumps(sorted(name for name in sys.modules if name not in before
                        and name.partition(".")[0] != "teamsim")))
"""
# Imports the modules in argv[1], then prints the instructions that
# `import teamsim.cli` executes outside the import system's frames.
COUNT_IMPORT = """
import importlib, json, sys
for name in json.loads(sys.argv[1]):
    try:
        importlib.import_module(name)
    except ImportError:  # a name an extension module registers, not a module
        pass
count = 0

def local(frame, event, arg):
    global count
    if event == "opcode":
        count += 1
    return local

def on_call(frame, event, arg):
    if frame.f_code.co_filename.startswith("<frozen importlib"):
        return None
    frame.f_trace_opcodes = True
    return local

sys.settrace(on_call)
import teamsim.cli
sys.settrace(None)
print(count)
"""


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="bound calibrated on CPython 3.11")
def test_cli_import_instruction_budget():
    dependencies = _last_line(DEPENDENCIES, None)
    assert _last_line(COUNT_IMPORT, dependencies) <= IMPORT_INSTRUCTIONS_BOUND
