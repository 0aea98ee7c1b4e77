"""Statements of ``hpexp`` that the project's own traffic never runs.

    python tools/traffic_lines.py

The traffic is what the project runs: the four benchmark workload configs of
``bench/workloads.py``, each through ``harness.run_config`` and through the
traced replay of ``bench/tracing.py``; the demos; the acceptance criteria
(``tests/test_acceptance.py``, through ``pytest.main``); and one small
``cli.main`` run of every subcommand, the ``python -m hpexp.cli`` entry
point included.  All of it runs once, in this interpreter, under
``sys.settrace`` restricted to the files of ``src/hpexp``; what it prints
and writes goes to a sink and a temporary directory.

A statement is an ``ast`` statement of a module, docstrings and the
imports under ``if TYPE_CHECKING:`` (run by no interpreter) excluded.  A
simple statement is reached when a line event fires on one of its lines; a
compound one (``if``, ``for``, ``try``, ``def``, ...) when one fires on its
header lines or a statement inside it is reached.  The script prints
``module:line: source`` for every statement not reached, then their number,
and the time of each part of the traffic to stderr.  It takes about a
minute on two cores.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import runpy
import sys
import tempfile
import time
import warnings
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hpexp"


class LineTrace:
    """The lines run in the files under ``root``, per file, while active."""

    def __init__(self, root: Path):
        self.prefix = str(root) + "/"
        self.lines: dict[str, set[int]] = defaultdict(set)

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(self.prefix):
            return None
        seen = self.lines[name]

        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return line
        return line

    def __enter__(self):
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)


def _not_run(tree: ast.AST) -> set[int]:
    """The ids of the statements of ``tree`` that no run executes by design:
    docstrings, and the imports under ``if TYPE_CHECKING:``."""
    out = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            out.update(id(n) for n in ast.walk(node)
                       if isinstance(n, ast.stmt))
        elif isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                               ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add(id(first))
    return out


def _children(node: ast.stmt) -> list[ast.stmt]:
    """The statements directly inside a compound statement."""
    out = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            out.append(child)
        elif isinstance(child, (ast.excepthandler, ast.match_case)):
            out.extend(child.body)
    return out


def unreached(source: str, lines: set[int]) -> list[ast.stmt]:
    """The statements of one module's source that ``lines`` does not reach."""
    tree = ast.parse(source)
    skip = _not_run(tree)
    reached = {}

    def visit(node: ast.stmt) -> bool:
        inner = _children(node)
        start = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        end = max(start, inner[0].lineno - 1) if inner else node.end_lineno
        hit = any(n in lines for n in range(start, end + 1))
        # every child is visited, so each is judged on its own
        hit = any([visit(c) for c in inner]) or hit
        reached[id(node)] = hit
        return hit

    for node in tree.body:
        visit(node)
    return sorted((node for node in ast.walk(tree)
                   if isinstance(node, ast.stmt) and id(node) not in skip
                   and not isinstance(node, (ast.Global, ast.Nonlocal))
                   and not reached[id(node)]),
                  key=lambda node: node.lineno)


def _timed(label: str, run) -> None:
    start = time.perf_counter()
    run()
    sys.stderr.write(f"traffic: {label} {time.perf_counter() - start:.1f} s\n")


def run_traffic(tmp: Path) -> None:
    """The project's traffic, as the module docstring lists it."""
    import pytest
    from workloads import WORKLOADS
    from tracing import Replay, Tracer

    from hpexp.cli import main
    from hpexp.harness import run_config

    def workloads():
        for name, config in WORKLOADS.items():
            run_config(config, out_dir=tmp / "workloads" / name)
            Replay(Tracer()).run(config)

    def demos():
        for path in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(path), run_name="__main__")

    def acceptance():
        # criteria 1, 2, 3 and 7 are red by measurement (README), so the
        # exit code is reported, not checked
        code = pytest.main([str(ROOT / "tests" / "test_acceptance.py"), "-q",
                            "-p", "no:cacheprovider", "--rootdir", str(ROOT)])
        sys.stderr.write(f"traffic: acceptance exit code {int(code)}\n")

    def cli():
        config = tmp / "config.json"
        config.write_text(json.dumps({"sweeps": [
            {"name": "bc", "kind": "basis-count", "family": "S", "p_max": 3},
            {"name": "l2q", "kind": "project-sweep", "proj_kind": "l2q",
             "dim": 2, "p_min": 0, "p_max": 4}]}))
        sine = str(tmp / "cli" / "sine")
        for argv in (
                ["basis-count", "--dim", "3", "--family", "s", "--p-max", "4"],
                ["fem-sine", "--dim", "2", "--n", "2", "--family", "q",
                 "--p-max", "3", "--out", sine],
                ["slope-fit", sine + ".csv", "--error-key", "h1_semi"],
                ["fem-lshape", "--family", "s", "--p-list", "1,2"],
                ["dg-sine", "--n", "2", "--family", "p", "--p-max", "2"],
                ["project-sweep", "--dim", "3", "--kind", "l2p",
                 "--function", "expsum", "--p-min", "0", "--p-max", "4"],
                ["project-sweep", "--dim", "2", "--kind", "h1s",
                 "--p-min", "0", "--p-max", "5"],
                ["lemma-audit", "--dim", "2", "--M-max", "3", "--m-max", "2"],
                ["sharp-ratio", "--dim", "2", "--p", "4", "--s", "2"],
                ["run", str(config), "--out-dir", str(tmp / "run")]):
            if main(argv) != 0:
                raise SystemExit(f"hpexp {' '.join(argv)} failed")
        argv, sys.argv = sys.argv, ["hpexp", "basis-count", "--p-max", "2"]
        try:
            with warnings.catch_warnings():
                # hpexp.cli is already imported; run it again as __main__
                warnings.simplefilter("ignore", RuntimeWarning)
                runpy.run_module("hpexp.cli", run_name="__main__")
        except SystemExit as exc:
            if exc.code:
                raise
        finally:
            sys.argv = argv

    for label, part in (("workloads", workloads), ("demos", demos),
                        ("acceptance", acceptance), ("cli", cli)):
        _timed(label, part)


def main() -> int:
    if "hpexp" in sys.modules:
        raise SystemExit("hpexp was imported before the trace started")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    trace = LineTrace(PACKAGE)
    with tempfile.TemporaryDirectory() as tmp, trace, \
            contextlib.redirect_stdout(io.StringIO()):
        run_traffic(Path(tmp))
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in unreached(source, trace.lines[str(path)]):
            line = lines[node.lineno - 1].strip()
            print(f"{path.stem}:{node.lineno}: {line}")
            total += 1
    print(f"{total} statements not reached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
