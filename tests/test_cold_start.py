"""A deterministic call loads only the modules it runs.

`run`, `report` and `compare` under `no_comm`, `fixed_steps` and
`c2c_heuristic` send no adapter request and decide in one thread, so the HTTP
stack, the thread pool and OpenSSL hashing stay unloaded; the first two load
on first use. Each case runs in a fresh interpreter and compares `sys.modules`
with a snapshot taken before `teamsim` is imported, so whatever `site` loads
on a given machine does not count.
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
UNUSED = ("urllib.request", "http.client", "email.parser", "ssl", "socket",
          "concurrent.futures", "hashlib")

PRELUDE = f"""
import contextlib, io, json, sys
before = set(sys.modules)
args = json.loads(sys.argv[1])

def loaded():
    return sorted(m for m in {UNUSED!r} if m in sys.modules and m not in before)
"""


def _loaded_after(body: str, **args) -> list[str]:
    """The modules of UNUSED that `body` loads in a fresh interpreter."""
    script = PRELUDE + textwrap.dedent(body) + "\nprint(json.dumps(loaded()))\n"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", script, json.dumps(args)],
                            env=env, capture_output=True, text=True,
                            timeout=120, check=False)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_deterministic_cli_calls_load_no_unused_module(tmp_path):
    body = """
    from teamsim.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        for policy in args["policies"]:
            out = f"{args['out']}/{policy}"
            assert main(["run", "--scenario", args["scenario"],
                         "--policy", policy, "--out", out]) == 0
            assert main(["report", "--run", out]) == 0
        assert main(["compare", "--scenario", args["scenario"],
                     "--policies", ",".join(args["policies"]),
                     "--out", f"{args['out']}/compare"]) == 0
    """
    assert _loaded_after(body, scenario=SIMPLE, policies=DETERMINISTIC,
                         out=str(tmp_path)) == []


@pytest.mark.parametrize("first_use,module", [
    ("""
    from teamsim.config import parse_scenario
    from teamsim.engine import run_scenario

    assert not loaded(), loaded()
    run_scenario(parse_scenario(args["scenario"]), parallel_decide=True)
    """, "concurrent.futures"),
    ("""
    from teamsim.adapter import AdapterError, ChatCompletionAdapter

    assert not loaded(), loaded()
    adapter = ChatCompletionAdapter(f"http://127.0.0.1:{args['port']}", "m",
                                    max_retries=0)
    try:
        adapter.complete([{"role": "user", "content": "ping"}])
    except AdapterError:
        pass
    """, "urllib.request"),
], ids=["parallel_decide", "adapter_request"])
def test_first_use_loads_the_module(first_use, module):
    assert module in _loaded_after(first_use, scenario=SIMPLE, port=refused_port())
