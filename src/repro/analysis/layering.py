"""R6: runtime layering.

The runtime refactor split scheduling into three one-way layers::

    kernels  ->  policy / registry / loop  ->  orchestration
    (array math)     (decision rules)          (experiments, pubsub, cli)

``RL601`` guards the arrows.  Two invariants are enforced on every
``import`` / ``from ... import`` in the scoped trees:

* ``runtime/kernels.py`` is the bottom layer: it may use the standard
  library and numpy, but must not import the policy layer
  (``repro.runtime.policy``, ``.registry``, ``.loop``) or anything in the
  orchestration layer.  Kernels stay pure array math so they can be
  benchmarked, vectorized and reasoned about in isolation.
* no module under ``repro.core``, ``repro.runtime`` or ``repro.trace``
  may import ``repro.experiments`` or ``repro.cli``.  Orchestration sits
  *above* them; when a lower layer needs behaviour chosen up top, the
  dependency is inverted through :mod:`repro.runtime.registry`.
* no module under ``repro.core`` or ``repro.runtime`` may import
  ``repro.service``.  The live service composes the runtime (ISSUE 9's
  multi-channel refactor routes channels *through* the loop's
  duck-typed hooks precisely so this arrow stays one-way).
* the per-channel cost tables in ``repro.core._channel_costs``
  are private to :mod:`repro.core.channels`: every other module must go
  through a :class:`~repro.core.channels.Channel` so a table edit can
  never bypass the billed-bytes accounting.

Relative imports are resolved against the module's own path before the
check, so ``from . import loop`` inside the kernels file still trips.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, ModuleInfo, ProjectIndex, Rule

#: Layers (as ``repro.``-stripped dotted prefixes) nothing in core/runtime
#: may depend on.
_ORCHESTRATION_PREFIXES = ("experiments", "cli")

#: The live service also sits above core/runtime; flagged separately so
#: the message can point at the loop's duck-typed hooks (the sanctioned
#: way for the runtime to reach service-chosen behaviour).
_SERVICE_PREFIX = ("service",)

#: Private per-channel cost tables; only ``core/channels.py`` may read
#: them.
_CHANNEL_COST_PREFIX = ("core._channel_costs",)

#: Additional prefixes banned from the kernel file only.
_POLICY_PREFIXES = (
    "runtime.policy",
    "runtime.registry",
    "runtime.loop",
    "pubsub",
)


def _normalize(dotted: str) -> str:
    """Strip the optional ``repro.`` package prefix from a dotted name."""
    if dotted == "repro":
        return ""
    if dotted.startswith("repro."):
        return dotted[len("repro.") :]
    return dotted


def _matches(dotted: str, prefixes: tuple[str, ...]) -> str | None:
    for prefix in prefixes:
        if dotted == prefix or dotted.startswith(prefix + "."):
            return prefix
    return None


def _package_parts(module: ModuleInfo) -> tuple[str, ...]:
    """The module's package path with everything above ``repro`` dropped."""
    parts = module.parts
    if "repro" in parts:
        parts = parts[parts.index("repro") + 1 :]
    return parts[:-1]


def _imported_names(
    node: ast.Import | ast.ImportFrom, module: ModuleInfo
) -> Iterator[str]:
    """Every dotted module name a statement pulls in, ``repro.``-stripped."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield _normalize(alias.name)
        return
    if node.level:
        package = _package_parts(module)
        base_parts = package[: len(package) - (node.level - 1)]
        base = ".".join(base_parts)
        if node.module:
            base = f"{base}.{node.module}" if base else node.module
    else:
        base = _normalize(node.module or "")
    if base:
        yield base
    for alias in node.names:
        if alias.name == "*":
            continue
        yield f"{base}.{alias.name}" if base else _normalize(alias.name)


class LayeringRule(Rule):
    code = "RL601"
    name = "layering"
    summary = "import that crosses the kernels -> policy -> orchestration layering"
    scope = ("core", "runtime", "trace")

    def check(self, module: ModuleInfo, index: ProjectIndex) -> Iterator[Finding]:
        is_kernels = (
            module.parts[-1] == "kernels.py" and "runtime" in module.parts
        )
        is_channels = module.parts[-2:] == ("core", "channels.py")
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            flagged: set[str] = set()
            for dotted in _imported_names(node, module):
                hit = _matches(dotted, _ORCHESTRATION_PREFIXES)
                if hit is not None and hit not in flagged:
                    flagged.add(hit)
                    yield self.finding(
                        module,
                        node,
                        f"layer violation: repro.{hit} is orchestration and "
                        "sits above core/runtime/trace; invert the dependency "
                        "through repro.runtime.registry instead",
                    )
                    continue
                hit = _matches(dotted, _SERVICE_PREFIX)
                if hit is not None and hit not in flagged:
                    flagged.add(hit)
                    yield self.finding(
                        module,
                        node,
                        "layer violation: repro.service composes the "
                        "runtime, never the reverse; expose the behaviour "
                        "as a duck-typed hook on the loop (like "
                        "shared_capacity) instead",
                    )
                    continue
                if not is_channels:
                    hit = _matches(dotted, _CHANNEL_COST_PREFIX)
                    if hit is not None and hit not in flagged:
                        flagged.add(hit)
                        yield self.finding(
                            module,
                            node,
                            "repro.core._channel_costs is private to "
                            "core/channels.py; read per-channel pricing "
                            "through a Channel so billed-bytes accounting "
                            "cannot be bypassed",
                        )
                        continue
                if not is_kernels:
                    continue
                hit = _matches(dotted, _POLICY_PREFIXES)
                if hit is not None and hit not in flagged:
                    flagged.add(hit)
                    yield self.finding(
                        module,
                        node,
                        "runtime.kernels is the bottom layer (pure array "
                        f"math); importing repro.{hit} makes the kernels "
                        "depend on the decision layer built on top of them",
                    )
