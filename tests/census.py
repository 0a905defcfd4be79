"""Reachability census: every ``def`` in ``src/`` is run by the product or
says why it stays.

    PYTHONPATH=src python tests/census.py          # or: make census

The census runs the product tour -- every ``richnote`` verb (each line of
the CI drive, the ``serve`` smoke and its hostile inputs, a FIFO run under
faults, both two-worker sweeps), every example script and the repo
benchmark's four workloads with per-layer tracing -- in subprocesses whose
``PYTHONPATH`` starts with a generated ``sitecustomize``.  That module
installs a ``sys.setprofile`` hook in every interpreter the tour starts
(harness children included; forked pool workers inherit it) and records
the code objects entered.  A process dumps its record at exit, or in
``os._exit``, which is how pool workers leave.

Every ``def`` under ``src/repro`` is listed with :mod:`ast` and matched by
``(file, first line)``, the first line counting decorators, which is the
code object's ``co_firstlineno``.  The census fails on a function that is
neither reached nor listed in ``tests/census_allow.txt``, and on an
allow-list entry the tour reaches (the list holds only what the product
does not run).  ``tests/test_census_allow.py`` checks the list statically
in tier-1; this tour takes about two minutes on two cores and runs as its own
CI step.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ALLOW_PATH = ROOT / "tests" / "census_allow.txt"

#: Why a function the product never enters stays in ``src/``.
KINDS = {
    "oracle": "a test checks product code against it or reads product state with it",
    "claim": "claim analysis a test of the paper's results runs",
    "fake": "a test double or test hook",
    "protocol": "a Protocol / abstract stub, or a dunder kept for the data model",
    "docs": "a documented API or extension example",
    "theory": "a bound the theory tests check",
    "paper": "a model the paper defines",
    "bench": "a benchmark harness wrap target (benchmarks/harness/)",
}
#: Kinds whose detail must name a file that mentions the function.
KINDS_NAMING_A_FILE = ("oracle", "claim", "fake", "docs", "bench")

SITECUSTOMIZE = '''\
import os
import sys
import threading

_OUT = {out!r}
_SRC = {src!r}
_seen = set()
_add = _seen.add


def _hook(frame, event, arg):
    if event == "call":
        _add(frame.f_code)


def _dump():
    rows = set()
    for code in list(_seen):
        path = os.path.realpath(code.co_filename)
        if path.startswith(_SRC):
            rows.add(f"{{path}}:{{code.co_firstlineno}}")
    with open(os.path.join(_OUT, f"{{os.getpid()}}.txt"), "a") as out:
        out.write("\\n".join(sorted(rows)) + "\\n")


_real_exit = os._exit


def _exit(code):
    _dump()
    _real_exit(code)


os._exit = _exit
import atexit

atexit.register(_dump)
threading.setprofile(_hook)
sys.setprofile(_hook)
'''


def _tour(work: Path) -> list[tuple[list[str], int]]:
    """``(argv, expected exit code)`` for every step of the product tour."""
    trace = str(work / "trace.jsonl")
    cli = [sys.executable, "-m", "repro.cli"]
    small = ["--trace", trace, "--users", "5"]
    steps = [
        ["generate-trace", "--preset", "small", "--out", trace],
        ["train", "--trace", trace],
        ["stats", "--trace", trace],
        ["run", *small, "--budget", "5"],
        ["run", *small, "--budget", "5", "--faults", "disconnect=0.2"],
        ["run", *small, "--budget", "5", "--method", "fifo:3",
         "--faults", "disconnect=0.2"],
        ["sweep", *small, "--budgets", "2,20", "--workers", "0"],
        ["sweep", *small, "--budgets", "2,20", "--workers", "2"],
        ["sweep", *small, "--budgets", "2,20", "--faults", "disconnect=0.2",
         "--workers", "0"],
        ["sweep", *small, "--budgets", "2,20", "--faults", "disconnect=0.2",
         "--workers", "2"],
        ["sweep", "--trace", trace, "--workers", "0"],
        ["sweep", "--trace", trace, "--workers", "2"],
        ["bench-channels", "--rounds", "10"],
        ["figures", *small, "--budgets", "2,20", "--out", str(work / "fig")],
        ["survey"],
        ["serve", "--users", "8", "--rounds", "3", "--chaos", "flash-crowd"],
        ["serve", "--users", "4", "--rounds", "2", "--sink-fail", "1.0"],
    ]
    hostile = [
        ["serve", "--rounds", "0"],
        ["bench-channels", "--pool-bytes", "nan"],
        ["sweep", "--trace", trace, "--workers", "-2"],
        ["survey", "--respondents", "0"],
        ["run", "--trace", trace, "--method", "bogus"],
        ["sweep", "--trace", trace, "--methods", "fifo:1,fifo:1"],
        ["run", "--trace", str(work / "missing.jsonl")],
    ]
    examples = [
        ["quickstart.py"],
        ["presentation_survey.py"],
        ["pubsub_broker.py"],
        ["multimedia_feeds.py"],
        ["live_system.py"],
        ["spotify_week.py", "--budgets", "1,5,20,100", "--users", "10"],
    ]
    harness = [
        sys.executable, str(ROOT / "benchmarks" / "harness" / "run.py"),
        "--all", "--seed", "97", "--trace", "1", "--repeats", "1", "--setups", "1",
    ]
    return (
        [([*cli, *step], 0) for step in steps]
        + [([*cli, *step], 2) for step in hostile]
        + [([sys.executable, str(ROOT / "examples" / name), *rest], 0)
           for name, *rest in examples]
        + [(harness, 0)]
    )


@dataclass(frozen=True)
class Function:
    """One ``def`` in ``src/repro``."""

    module: str
    qualname: str
    path: Path
    first_line: int  # counts decorators, as ``co_firstlineno`` does
    last_line: int

    @property
    def key(self) -> str:
        return f"{self.module}:{self.qualname}"

    @property
    def lines(self) -> int:
        return self.last_line - self.first_line + 1


def list_functions(src: Path = SRC) -> list[Function]:
    """Every function and method under ``src/repro``, nested ones included."""
    found: list[Function] = []
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min(
                        [child.lineno] + [d.lineno for d in child.decorator_list]
                    )
                    found.append(Function(
                        module, prefix + child.name, path.resolve(), first,
                        child.end_lineno,
                    ))
                    visit(child, f"{prefix}{child.name}.<locals>.")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def read_allow_list(path: Path = ALLOW_PATH) -> dict[str, tuple[str, str]]:
    """``{module:qualname: (kind, detail)}`` from the allow-list file."""
    entries: dict[str, tuple[str, str]] = {}
    for number, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, reason = line.partition(" ")
        kind, sep, detail = reason.strip().partition(":")
        if not sep or not detail.strip():
            raise ValueError(f"{path.name}:{number}: need 'module:qualname  kind: detail'")
        if key in entries:
            raise ValueError(f"{path.name}:{number}: {key} listed twice")
        entries[key] = (kind.strip(), detail.strip())
    return entries


def run_tour(work: Path) -> set[tuple[Path, int]]:
    """Run every tour step; the ``(file, first line)`` of each code entered."""
    site = work / "site"
    dumps = work / "dumps"
    site.mkdir()
    dumps.mkdir()
    (site / "sitecustomize.py").write_text(SITECUSTOMIZE.format(
        out=str(dumps), src=str(SRC.resolve()) + os.sep,
    ))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(site), str(SRC.resolve())])
    for argv, expected in _tour(work):
        done = subprocess.run(
            argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        shown = " ".join(Path(a).name if os.sep in a else a for a in argv[1:])
        print(f"  rc={done.returncode}  {shown}", flush=True)
        if done.returncode != expected:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"tour step exited {done.returncode}, expected {expected}")
    reached: set[tuple[Path, int]] = set()
    for dump in dumps.iterdir():
        for row in dump.read_text().split():
            path, _, line = row.rpartition(":")
            reached.add((Path(path), int(line)))
    return reached


def main() -> int:
    functions = list_functions()
    allow = read_allow_list()
    with tempfile.TemporaryDirectory(prefix="richnote-census-") as tmp:
        print("census tour:", flush=True)
        reached = run_tour(Path(tmp))
    unreached = [f for f in functions if (f.path, f.first_line) not in reached]
    known = {f.key for f in functions}
    missing = [f for f in unreached if f.key not in allow]
    stale = sorted(set(allow) - {f.key for f in unreached})
    print(
        f"{len(functions)} functions in src/, {len(functions) - len(unreached)} "
        f"reached; {len(unreached)} never entered "
        f"({sum(f.lines for f in unreached)} lines), {len(allow)} allow-listed"
    )
    for f in missing:
        print(f"NOT REACHED, NOT ALLOWED: {f.key} "
              f"({f.path.relative_to(ROOT)}:{f.first_line}, {f.lines} lines)")
    for key in stale:
        why = "reached by the tour" if key in known else "no such def in src/"
        print(f"STALE ALLOW-LIST ENTRY: {key} ({why})")
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
