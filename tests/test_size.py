"""Guards on the size of `teamsim`'s source.

Each module's raw line count is bounded, and so is the total over the
modules a deterministic `run` plus `report` loads, which every such call
compiles when no bytecode is cached. Each module's lines are also told
apart as code, docstring, comment and blank lines, by its syntax tree and
tokens, and its code lines are bounded. Like the bounds of
`tests/test_step_cost.py`, these are a ratchet: each is the reading of the
tree that set it, a change that shrinks a module lowers its bound, and a
change that grows one past its bound raises it and says why.

History: the bounds were set at 4,491 lines in all, 4,069 of them loaded by
a deterministic call, once the model-backed policy, planner and evaluator
left `policy`, `planner` and `engine` for `teamsim.llm`, which only an LLM
run loads (4,223 loaded before). `config.py` went from 305 to 419 lines, and
the loaded lines from 4,069 to 4,183, when it came to write and read a run's
`scenario.yaml` itself instead of through PyYAML's Python calls per node; the
code-line bounds were set then, at 3,103 code, 556 docstring, 253 comment and
693 blank lines in all. `config.py` went from 419 to 497 lines (302 to 367
code lines), the loaded lines from 4,183 to 4,263, when it came to read the
hand-written style of the shipped scenarios itself and import PyYAML only on
first need: the line reader, a verbatim copy of PyYAML's implicit-resolver
table (26 code lines), which tells which plain words read back as another
type, and the lazy loader and dumper. `metrics.py` went from 460 to 462
lines (318 to 320 code lines) when the heatmap came to render a row per
sender with messages and share one row among the rest.
"""

import ast
import io
import json
import tokenize
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "teamsim"

# Raw lines per module of `src/teamsim`, by file name.
MODULE_LINES_BOUND = {
    "__init__.py": 33, "adapter.py": 143, "alignment.py": 76, "cli.py": 358,
    "comms.py": 176, "config.py": 497, "engine.py": 1092, "llm.py": 151,
    "metrics.py": 462, "model.py": 183, "planner.py": 179, "policy.py": 472,
    "prompts.py": 128, "taskgraph.py": 263, "trace.py": 472,
}
# Raw lines of the `teamsim` modules a deterministic `run` plus `report` loads.
DETERMINISTIC_LINES_BOUND = 4263
# Code lines per module: neither blank, nor in a docstring, nor a comment alone.
MODULE_CODE_LINES_BOUND = {
    "__init__.py": 24, "adapter.py": 96, "alignment.py": 46, "cli.py": 234,
    "comms.py": 107, "config.py": 367, "engine.py": 778, "llm.py": 110,
    "metrics.py": 320, "model.py": 113, "planner.py": 116, "policy.py": 304,
    "prompts.py": 112, "taskgraph.py": 179, "trace.py": 264,
}

# Runs and reports each deterministic policy on each shipped scenario in a
# fresh interpreter, writing under argv[2], then prints the files of the
# `teamsim` modules loaded.
LOADED = """
import contextlib, io, json, sys
from teamsim.cli import main

root, out = sys.argv[1:3]
with contextlib.redirect_stdout(io.StringIO()):
    for name in ("simple", "medium", "complex", "multi_task"):
        for policy in ("no_comm", "fixed_steps", "c2c_heuristic"):
            run = f"{out}/{name}_{policy}"
            assert main(["run", "--scenario", f"{root}/scenarios/{name}.yaml",
                         "--policy", policy, "--out", run]) == 0
            assert main(["report", "--run", run]) == 0
print(json.dumps(sorted(module.__file__ for name, module in sys.modules.items()
                        if name.partition(".")[0] == "teamsim")))
"""


def lines(path: Path) -> int:
    return len(path.read_text(encoding="utf-8").splitlines())


def line_kinds(path: Path) -> dict[str, int]:
    """`path`'s lines by kind: blank, docstring (the first statement of the
    module, a class or a function, when it is a string), comment (a line
    holding only a comment) and code (every other line)."""
    source = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    comments = {token.start[0]
                for token in tokenize.generate_tokens(io.StringIO(source).readline)
                if token.type == tokenize.COMMENT and not token.line[:token.start[1]].strip()}
    kinds = dict.fromkeys(("code", "docstring", "comment", "blank"), 0)
    for number, line in enumerate(source.splitlines(), 1):
        kinds["blank" if not line.strip() else "docstring" if number in docstrings
              else "comment" if number in comments else "code"] += 1
    return kinds


def test_each_module_stays_under_its_bound():
    readings = {path.name: lines(path) for path in PACKAGE.glob("*.py")}
    # A new module needs a bound, and a deleted one leaves the table.
    assert set(readings) == set(MODULE_LINES_BOUND)
    assert {name: count for name, count in readings.items()
            if count > MODULE_LINES_BOUND[name]} == {}


def test_deterministic_calls_load_at_most_the_bound(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", LOADED, str(ROOT), str(tmp_path)],
                            env=env, capture_output=True, text=True, timeout=120,
                            check=False)
    assert result.returncode == 0, result.stderr
    files = [Path(f) for f in json.loads(result.stdout.splitlines()[-1])]
    assert all(f.parent == PACKAGE for f in files)
    assert "llm.py" not in {f.name for f in files}
    total = sum(lines(f) for f in files)
    assert total <= DETERMINISTIC_LINES_BOUND, \
        f"{total} lines in {sorted(f.name for f in files)}"


def test_each_modules_code_stays_under_its_bound():
    readings = {path.name: line_kinds(path) for path in PACKAGE.glob("*.py")}
    assert set(readings) == set(MODULE_CODE_LINES_BOUND)
    assert all(sum(kinds.values()) == lines(PACKAGE / name)
               for name, kinds in readings.items())
    assert {name: kinds["code"] for name, kinds in readings.items()
            if kinds["code"] > MODULE_CODE_LINES_BOUND[name]} == {}
