"""The census allow-list, checked statically.

``tests/census.py`` (``make census``) runs the product tour and fails on a
``src/`` function nothing enters unless ``tests/census_allow.txt`` says why
it stays.  These checks need no tour: every entry resolves to a ``def`` in
``src/``, has a known kind, and -- for the kinds that cite one -- names a
file that mentions the function.
"""

import importlib
import inspect
import re
from pathlib import Path

import pytest

from tests.census import (
    KINDS,
    KINDS_NAMING_A_FILE,
    ROOT,
    list_functions,
    read_allow_list,
)

ENTRIES = read_allow_list()
CITED_FILE = re.compile(r"[\w./-]+\.(?:py|md)\b")


def cited_name(key: str) -> str:
    """The name a citing file uses: a dunder is cited by its class
    (``MckpItem(...)`` runs ``MckpItem.__post_init__``)."""
    parts = key.partition(":")[2].split(".")
    if parts[-1].startswith("__") and len(parts) > 1:
        return parts[-2]
    return parts[-1]


def test_every_entry_is_a_def_in_src():
    known = {function.key for function in list_functions()}
    assert sorted(set(ENTRIES) - known) == []


def test_every_kind_is_known():
    unknown = {key: kind for key, (kind, _) in ENTRIES.items() if kind not in KINDS}
    assert unknown == {}


def counts_for(kind: str, path: Path) -> bool:
    """Whether a cited file can carry ``kind``: documentation is a .md
    file, a benchmark wrap target is named under benchmarks/."""
    if kind == "docs":
        return path.suffix == ".md"
    if kind == "bench":
        return path.relative_to(ROOT).parts[0] == "benchmarks"
    return True


def test_cited_files_mention_the_function():
    problems = []
    for key, (kind, detail) in sorted(ENTRIES.items()):
        if kind not in KINDS_NAMING_A_FILE:
            continue
        paths = [ROOT / token for token in CITED_FILE.findall(detail)]
        missing = [str(path.relative_to(ROOT)) for path in paths if not path.is_file()]
        if not paths or missing:
            problems.append(f"{key}: cite an existing file ({detail!r})")
            continue
        name = re.compile(rf"\b{re.escape(cited_name(key))}\b")
        if not any(
            counts_for(kind, path) and name.search(path.read_text(encoding="utf-8"))
            for path in paths
        ):
            problems.append(f"{key}: no cited {kind} file mentions {cited_name(key)}")
    assert problems == []


@pytest.mark.parametrize(
    "kind, path, counts",
    [
        ("docs", "DESIGN.md", True),
        ("docs", "tests/test_service.py", False),
        ("bench", "benchmarks/harness/workloads.py", True),
        ("bench", "tests/test_runtime.py", False),
        ("oracle", "tests/test_runtime.py", True),
    ],
)
def test_a_kind_is_carried_only_by_its_kind_of_file(kind, path, counts):
    assert counts_for(kind, ROOT / path) is counts


@pytest.mark.parametrize(
    "text, message",
    [
        ("repro.core.mckp:solve_exact_dp\n", "need 'module:qualname  kind: detail'"),
        ("repro.core.mckp:solve_exact_dp  oracle:\n", "need 'module:qualname  kind: detail'"),
        (
            "repro.core.mckp:solve_exact_dp  oracle: a\n"
            "repro.core.mckp:solve_exact_dp  oracle: b\n",
            "listed twice",
        ),
    ],
    ids=["no-kind", "empty-detail", "duplicate"],
)
def test_malformed_lists_are_refused(text, message, tmp_path):
    path = tmp_path / "allow.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_allow_list(path)


def test_comments_and_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "allow.txt"
    path.write_text("# why\n\nrepro.core.mckp:solve_exact_dp  oracle: tests/test_mckp.py\n")
    assert read_allow_list(path) == {
        "repro.core.mckp:solve_exact_dp": ("oracle", "tests/test_mckp.py")
    }


def test_first_lines_match_the_code_objects():
    """The census matches a reached function by ``co_firstlineno``; the
    listing's first line (decorators included) must be that line."""
    checked = 0
    mismatched = []
    for function in list_functions():
        if "<locals>" in function.qualname:
            continue
        target = importlib.import_module(function.module)
        for part in function.qualname.split("."):
            target = inspect.getattr_static(target, part, None)
        target = getattr(target, "fget", None) or getattr(target, "__func__", None) or target
        code = getattr(inspect.unwrap(target), "__code__", None) if callable(target) else None
        if code is None:
            continue
        checked += 1
        if code.co_firstlineno != function.first_line:
            mismatched.append(function.key)
    assert mismatched == []
    assert checked > 500
