"""In-memory spans for the traced run, recorded from outside the program.

Two ways a span gets recorded, both from the harness's own files:

* directly -- ``with recorder.span(name):`` around a call the harness
  itself makes into a public function;
* by wrapping -- :meth:`Recorder.wrap` replaces a public module or class
  attribute with a timing shim for calls the *program* makes (a kernel
  called by the engine, a queue offered to by the service).  Every wrap
  is undone by :meth:`Recorder.restore`; a target that no longer exists
  is remembered in :attr:`Recorder.missing` and reads as ``None``
  downstream -- a refactor that moves a function must not crash the
  benchmark, it must show up as a hole in the table.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
span that was open when it began (``-1`` at top level), so a layer's
self time is its duration minus its direct children's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass

_MISSING = object()


@dataclass
class Totals:
    """One span name summed over a pass."""

    total_s: float = 0.0
    self_s: float = 0.0
    calls: int = 0


def resolve(path: str):
    """Import the longest module prefix of ``path``, then walk attributes.

    ``"repro.service.queues.IngestFrontier"`` -> the class.  Returns
    ``None`` when any step is missing.
    """
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            target = getattr(target, attr, _MISSING)
            if target is _MISSING:
                return None
        return target
    return None


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._wrapped: list[tuple[object, str, object]] = []
        #: Span names whose wrap target did not exist.
        self.missing: set[str] = set()

    # -- recording -------------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        # Spans close innermost-first; tolerate a stray order rather than
        # corrupt the stack.
        if self._open and self._open[-1] == index:
            self._open.pop()
        elif index in self._open:
            self._open.remove(index)

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def clear(self) -> None:
        """Drop recorded spans (between passes); wraps stay installed."""
        self.spans = []
        self._open = []

    # -- wrapping --------------------------------------------------------------

    def wrap(self, owner_path: str, attr: str, name: str) -> bool:
        """Time every call of ``owner.attr`` as a span called ``name``."""
        owner = resolve(owner_path)
        original = getattr(owner, attr, _MISSING) if owner is not None else _MISSING
        if original is _MISSING or not callable(original):
            self.missing.add(name)
            return False
        begin, end = self.begin, self.end
        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def shim(*args, **kwargs):
                index = begin(name)
                try:
                    return await original(*args, **kwargs)
                finally:
                    end(index)

        else:

            @functools.wraps(original)
            def shim(*args, **kwargs):
                index = begin(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    end(index)

        setattr(owner, attr, shim)
        self._wrapped.append((owner, attr, original))
        return True

    def restore(self) -> None:
        while self._wrapped:
            owner, attr, original = self._wrapped.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------------

    def totals(self) -> dict[str, Totals]:
        out: dict[str, Totals] = {}
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for index, (name, start, end, parent) in enumerate(self.spans):
            entry = out.setdefault(name, Totals())
            entry.total_s += end - start
            entry.self_s += (end - start) - children[index]
            entry.calls += 1
        return out

    def top_level_s(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)
