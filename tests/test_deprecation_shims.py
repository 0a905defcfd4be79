"""Finished deprecation cycles: the old import paths are gone, not shimmed."""

from __future__ import annotations

import pytest


class TestDeprecationWarnings:
    def test_experiments_parallel_shim_is_gone(self):
        """The ``experiments.parallel`` shim finished its deprecation
        cycle (introduced in ISSUE 8, removed in ISSUE 9); the canonical
        entry points are :func:`repro.experiments.pool.sweep_budgets_parallel`
        and :class:`repro.experiments.pool.ExperimentPool`.
        The ``core.scheduler`` / ``core.baselines`` scheduler classes
        followed in ISSUE 18: build a :class:`repro.runtime.RoundLoop`
        with ``policy=registry.create(name, ...)``.
        """
        with pytest.raises(ModuleNotFoundError):
            import repro.experiments.parallel  # noqa: F401
        with pytest.raises(ModuleNotFoundError):
            import repro.core.scheduler  # noqa: F401
        with pytest.raises(ModuleNotFoundError):
            import repro.core.baselines  # noqa: F401
