"""Import layering of ``src/repro``, checked on the AST.

The scheduling runtime is three one-way layers::

    kernels  ->  policy / registry / loop  ->  orchestration
    (array math)     (decision rules)          (experiments, pubsub, cli, service)

Four arrows are held:

* ``core`` / ``runtime`` / ``trace`` import neither ``repro.experiments``
  nor ``repro.cli``: a lower layer that needs behaviour chosen up top gets
  it inverted through :mod:`repro.runtime.registry`;
* ``core`` / ``runtime`` / ``trace`` do not import ``repro.service``: the
  service composes the runtime through the loop's duck-typed hooks;
* only ``core/channels.py`` imports ``repro.core._channel_costs``, so no
  raw cost table can bypass the billed-bytes accounting of a ``Channel``;
* ``runtime/kernels.py`` imports none of ``runtime.policy`` /
  ``.registry`` / ``.loop`` or ``pubsub``: kernels stay pure array math.

Relative imports are resolved against the importing module's package, so
``from . import loop`` in the kernels file counts.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

LOWER_ZONES = ("core", "runtime", "trace")
ORCHESTRATION = ("experiments", "cli", "service")
POLICY = ("runtime.policy", "runtime.registry", "runtime.loop", "pubsub")


def repro_imports(path: Path, root: Path):
    """``(line, names)`` per import statement of ``path``: every ``repro``
    module it names, relative imports resolved, ``repro.`` stripped."""
    package = path.relative_to(root).parent.parts
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:
                parts = ["repro", *package[: len(package) - node.level + 1]]
                base = ".".join([*parts, node.module] if node.module else parts)
            names = [base, *(f"{base}.{alias.name}" for alias in node.names)]
        else:
            continue
        yield node.lineno, [name[len("repro."):] for name in names if name.startswith("repro.")]


def layering_violations(root: Path, under: str = "") -> list[str]:
    """Every crossed arrow in the modules of ``root`` (or of its
    ``under`` file or package only), as ``"rel/path.py:line imports repro.x"``."""
    scope = root / under
    offenders = []
    for path in [scope] if scope.is_file() else sorted(scope.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        banned = [] if rel == "core/channels.py" else ["core._channel_costs"]
        if rel.split("/")[0] in LOWER_ZONES:
            banned += ORCHESTRATION
        if rel == "runtime/kernels.py":
            banned += POLICY
        for line, names in repro_imports(path, root):
            hits = {
                layer for layer in banned for name in names
                if name == layer or name.startswith(layer + ".")
            }
            offenders += [f"{rel}:{line} imports repro.{layer}" for layer in sorted(hits)]
    return offenders


#: The top-level modules and packages of ``src/repro``, one check each.
TOP_LEVEL = sorted(
    path.name for path in SRC.iterdir()
    if path.suffix == ".py" or (path / "__init__.py").is_file()
)


@pytest.mark.parametrize("under", TOP_LEVEL)
def test_src_imports_follow_the_layering(under):
    assert layering_violations(SRC, under) == []


def plant(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text, encoding="utf-8")
    return root


@pytest.mark.parametrize(
    ("rel", "source", "layer"),
    [
        ("core/a.py", "from repro.experiments import runner\n", "experiments"),
        ("core/a.py", "import repro.cli\n", "cli"),
        ("core/a.py", "from repro.service.server import Server\n", "service"),
        ("runtime/b.py", "from ..experiments import pool\n", "experiments"),
        ("runtime/b.py", "from .. import cli\n", "cli"),
        ("runtime/b.py", "import repro.service\n", "service"),
        ("trace/c.py", "from repro.experiments.shards import plan\n", "experiments"),
        ("trace/c.py", "from repro.cli import main\n", "cli"),
        ("trace/c.py", "from ..service import server\n", "service"),
        ("sim/d.py", "from repro.core._channel_costs import PUSH\n", "core._channel_costs"),
        ("core/delivery.py", "from . import _channel_costs\n", "core._channel_costs"),
        ("core/delivery.py", "from ._channel_costs import PUSH\n", "core._channel_costs"),
        ("runtime/kernels.py", "from . import policy\n", "runtime.policy"),
        ("runtime/kernels.py", "from .registry import lookup\n", "runtime.registry"),
        ("runtime/kernels.py", "from repro.runtime import loop\n", "runtime.loop"),
        ("runtime/kernels.py", "import repro.pubsub.broker\n", "pubsub"),
    ],
    ids=lambda value: "_".join(value.split()),
)
def test_each_crossed_arrow_fires(tmp_path, rel, source, layer):
    root = plant(tmp_path, {rel: "import numpy\n" + source})
    assert layering_violations(root) == [f"{rel}:2 imports repro.{layer}"]


@pytest.mark.parametrize(
    ("rel", "source"),
    [
        ("core/channels.py", "from repro.core import _channel_costs\nfrom ._channel_costs import PUSH\n"),
        ("experiments/e.py", "from repro.cli import main\nfrom ..runtime import loop\n"),
        ("service/s.py", "from repro.runtime.loop import run_rounds\nfrom ..trace import io\n"),
        ("cli.py", "from repro.experiments import runner\nfrom .service import server\n"),
        ("runtime/loop.py", "from . import kernels, policy\nfrom repro.pubsub import broker\n"),
        ("runtime/kernels.py", "import numpy\nfrom . import columnar\n"),
        ("pubsub/p.py", "from repro.runtime import policy\n"),
        ("core/x.py", "from repro.runtime import kernels\nfrom . import channels\n"),
        ("trace/t.py", "import repro.experimental\nimport repro.cli_tools\n"),
    ],
    ids=lambda value: "_".join(value.split()),
)
def test_imports_down_the_layers_pass(tmp_path, rel, source):
    assert layering_violations(plant(tmp_path, {rel: source})) == []


def test_check_fires_once_per_crossed_arrow(tmp_path):
    root = plant(tmp_path, {
        "core/a.py": "from repro.experiments import runner\n",
        "runtime/b.py": "import repro.cli\n",
        "trace/c.py": "from ..service import server\n",
        "sim/d.py": "from repro.core._channel_costs import PUSH\n",
        "runtime/kernels.py": "import numpy\nfrom . import loop\n",
        # allowed: the cost tables' one reader, and orchestration importing down
        "core/channels.py": "from repro.core import _channel_costs\n",
        "experiments/e.py": "from repro.cli import main\nfrom ..runtime import loop\n",
    })
    assert layering_violations(root) == [
        "core/a.py:1 imports repro.experiments",
        "runtime/b.py:1 imports repro.cli",
        "runtime/kernels.py:2 imports repro.runtime.loop",
        "sim/d.py:1 imports repro.core._channel_costs",
        "trace/c.py:1 imports repro.service",
    ]
