"""Line and function census of ``src/repro`` under the repository's own runs.

Runs, in one process, under a ``sys.settrace`` tracer that follows only
frames whose code lives in ``src/repro``:

- ``tests``: the tier-1 suite (``pytest tests``);
- ``gates``: the CI smoke gates (``faults``/``resume``/``trace``/
  ``serve``/``shard``/``fleet``/``integrity --smoke``) and
  ``soak --gate --smoke``, through ``repro.cli.main``;
- ``benchmarks``: every ``benchmarks/bench_*.py``;
- ``perfbench``: the benchmark harness self-test;
- ``examples``: every ``examples/*.py``, through ``runpy``.

It then prints every executable line that never ran, file by file, and
every function that was never entered::

    PYTHONPATH=src python tools/line_census.py
    PYTHONPATH=src python tools/line_census.py --groups gates,examples

The benchmarks rewrite ``benchmarks/results/``, so take the census in a
throwaway clone.  The full census takes about 12 minutes on a 2-core
machine.  Only the standard library is used (``coverage`` is not needed).
"""

from __future__ import annotations

import argparse
import contextlib
import dis
import inspect
import io
import os
import runpy
import sys
import tempfile
import threading
import traceback
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
GROUPS = ("tests", "gates", "benchmarks", "perfbench", "examples")
GATES = (
    ("faults", "--smoke"),
    ("resume", "--smoke"),
    ("trace", "--smoke"),
    ("serve", "--smoke"),
    ("shard", "--smoke"),
    ("fleet", "--smoke"),
    ("integrity", "--smoke"),
    ("soak", "--gate", "--smoke"),
)
#: Opcodes that carry a line number but never raise a ``line`` event.
_SILENT_OPS = {"RESUME", "NOP", "CACHE", "EXTENDED_ARG"}


class Tracer:
    """Records every ``src/repro`` line that runs and every code object entered."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.lines: set[tuple[str, int]] = set()
        self.entered: set[tuple[str, int, str]] = set()

    def _global(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self.prefix):
            return None
        self.entered.add((code.co_filename, code.co_firstlineno, code.co_name))
        return self._local

    def _local(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def install(self) -> None:
        threading.settrace(self._global)
        sys.settrace(self._global)

    def remove(self) -> None:
        sys.settrace(None)
        threading.settrace(None)


def _code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def _code_lines(code: types.CodeType) -> set[int]:
    """Lines of ``code`` itself (not nested code) that raise a line event."""
    return {
        ins.positions.lineno if hasattr(ins, "positions") else ins.starts_line
        for ins in dis.get_instructions(code)
        if ins.opname not in _SILENT_OPS
        and (ins.positions.lineno if hasattr(ins, "positions") else ins.starts_line)
    }


def _functions(module: types.CodeType):
    """(code, every executable line of it and its nested code) per function.

    Lambdas, comprehensions and class bodies are left out: the first two
    are counted through their enclosing function's lines, and a class
    body (like the module, not an optimized code object) runs whenever
    its module is imported.
    """
    for code in _code_objects(module):
        if not code.co_flags & inspect.CO_OPTIMIZED or code.co_name.startswith("<"):
            continue
        lines = set()
        for inner in _code_objects(code):
            lines |= _code_lines(inner)
        yield code, lines


def census(tracer: Tracer) -> dict:
    """Compare what ran with what could run, file by file."""
    files = {}
    functions = []
    for path in sorted(SRC.rglob("*.py")):
        name = str(path)
        module = compile(path.read_text(), name, "exec")
        executable = set()
        for code in _code_objects(module):
            executable |= _code_lines(code)
        ran = {line for file, line in tracer.lines if file == name}
        files[name] = (executable, executable - ran)
        for code, lines in _functions(module):
            if (name, code.co_firstlineno, code.co_name) not in tracer.entered:
                functions.append(
                    (name, code.co_firstlineno,
                     getattr(code, "co_qualname", code.co_name), len(lines))
                )
    return {"files": files, "functions": functions}


def _ranges(lines) -> str:
    out = []
    for line in sorted(lines):
        if out and line == out[-1][1] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def render(result: dict) -> str:
    files = result["files"]
    total = sum(len(executable) for executable, _ in files.values())
    never = sum(len(missed) for _, missed in files.values())
    lines = [f"never-run lines: {never} of {total} executable", ""]
    for name, (_, missed) in files.items():
        if missed:
            rel = os.path.relpath(name, ROOT)
            lines.append(f"{rel} ({len(missed)}): {_ranges(missed)}")
    functions = result["functions"]
    lines += [
        "",
        f"never-entered functions: {len(functions)} "
        f"({sum(n for *_, n in functions)} executable lines)",
    ]
    for name, first, qualname, n in functions:
        lines.append(f"{os.path.relpath(name, ROOT)}:{first} {qualname} ({n})")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The runs
# ----------------------------------------------------------------------
def _pytest(*args: str) -> int:
    import pytest

    return int(pytest.main(["-q", "-p", "no:cacheprovider", *args]))


def _quiet(fn, *args) -> int:
    """Run ``fn`` with its stdout discarded; returns an exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            result = fn(*args)
        except SystemExit as exit_:
            result = exit_.code
            if result is not None and not isinstance(result, int):
                result = 1  # exited with a message
        except Exception:  # a crashing run still leaves its lines traced
            traceback.print_exc()
            result = 1
    # ``repro.cli.main`` returns its exit code; ``runpy.run_path`` returns
    # the script's globals.
    return result if isinstance(result, int) else 0


def run_group(group: str, scratch: str) -> list[tuple[str, int]]:
    """Run one group; returns (run name, exit code) pairs."""
    if group == "tests":
        return [("pytest tests", _pytest("tests"))]
    if group == "benchmarks":
        return [("pytest benchmarks", _pytest("benchmarks"))]
    if group == "perfbench":
        return [("pytest perfbench", _pytest("perfbench/test_perfbench.py"))]
    if group == "gates":
        from repro.cli import main

        out = []
        for argv in GATES:
            argv = list(argv)
            if argv[0] == "soak":
                argv += ["--out", os.path.join(scratch, "soak_matrix.json")]
            out.append((" ".join(argv), _quiet(main, argv)))
        return out
    if group == "examples":
        out = []
        argv = sys.argv
        for script in sorted((ROOT / "examples").glob("*.py")):
            sys.argv = [str(script)]  # each example runs with no arguments
            try:
                code = _quiet(runpy.run_path, str(script), None, "__main__")
            finally:
                sys.argv = argv
            out.append((script.name, code))
        return out
    raise SystemExit(f"unknown group {group!r} (choose from {', '.join(GROUPS)})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--groups", default=",".join(GROUPS),
        help=f"comma-separated runs to trace (default: {','.join(GROUPS)})",
    )
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    tracer = Tracer(str(SRC) + os.sep)
    runs = []
    with tempfile.TemporaryDirectory() as scratch:
        for group in args.groups.split(","):
            tracer.install()
            try:
                runs += run_group(group.strip(), scratch)
            finally:
                tracer.remove()
    print(render(census(tracer)))
    print("\nruns:")
    for name, code in runs:
        print(f"  {'ok  ' if code == 0 else 'FAIL'} {name} (exit {code})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
