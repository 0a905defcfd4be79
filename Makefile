# RichNote reproduction -- common targets.

PYTHON ?= python

.PHONY: install test chaos lint analyze analyze-sarif bench-repo artifacts examples clean

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Chaos-injection suite: randomized fault schedules at three fixed seeds
# (CHAOS_SEEDS in tests/test_failure_injection.py), so failures replay.
chaos:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -m chaos -q

# Style lint (ruff). Fails loudly when ruff is missing under CI (or with
# REQUIRE_RUFF=1) instead of silently skipping -- a green lint job must
# mean the linter actually ran.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	elif [ -n "$$CI" ] || [ -n "$$REQUIRE_RUFF" ]; then \
		echo "error: ruff is required (CI/REQUIRE_RUFF set) but not installed" >&2; \
		exit 1; \
	else \
		echo "ruff not installed; skipping lint (set REQUIRE_RUFF=1 to fail instead)"; \
	fi

# Domain-invariant lint (richlint): unit safety, determinism, float and
# dataclass hygiene, conservation markers, async safety. Four passes:
#  1. src/ must be clean against the baseline (--stats keeps the baseline
#     burn-down visible on every run);
#  2. dogfood: the analyzer must analyze its own sources clean with NO
#     baseline escape hatch;
#  3. tests/ + benchmarks/ enforce the scoped rule families that are
#     meaningful there (determinism R2, dataclass hygiene R4, async
#     safety R7) -- fixture files for the analyzer itself excluded;
#  4. everything else runs warn-only (assertion idioms like exact float
#     equality are fine in tests).
analyze:
	PYTHONPATH=src $(PYTHON) -m repro.analysis src/repro --stats
	PYTHONPATH=src $(PYTHON) -m repro.analysis src/repro/analysis --no-baseline
	PYTHONPATH=src $(PYTHON) -m repro.analysis tests benchmarks \
		--select R2,R4,R7 --exclude 'tests/fixtures/*'
	PYTHONPATH=src $(PYTHON) -m repro.analysis tests benchmarks examples \
		--warn-only --exclude 'tests/fixtures/*'

# Machine-readable results: one SARIF 2.1.0 log for the whole tree
# (src enforced elsewhere; this pass is for CI artifact + code scanning,
# so it never gates).
analyze-sarif:
	PYTHONPATH=src $(PYTHON) -m repro.analysis src/repro tests benchmarks \
		--warn-only --exclude 'tests/fixtures/*' \
		--sarif-out richlint.sarif
	@echo "wrote richlint.sarif"

# The repo benchmark (BENCHMARK.json): every workload's end-to-end
# metrics in reference seconds, outputs checked against the goldens.
# See benchmarks/harness/README.md.  One workload's per-layer table is
# `make bench-repo WORKLOAD=cohort-push TRACE=1`.
bench-repo:
	$(PYTHON) benchmarks/harness/run.py --seed 97 \
		$(if $(WORKLOAD),--workload $(WORKLOAD),--all) $(if $(TRACE),--trace $(TRACE))

# Regenerate every figure artifact from a fresh synthetic trace.
artifacts:
	$(PYTHON) -m repro.cli generate-trace --preset medium --out /tmp/richnote-trace.jsonl.gz
	$(PYTHON) -m repro.cli figures --trace /tmp/richnote-trace.jsonl.gz --out artifacts --users 25

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/presentation_survey.py
	$(PYTHON) examples/pubsub_broker.py
	$(PYTHON) examples/multimedia_feeds.py
	$(PYTHON) examples/live_system.py
	$(PYTHON) examples/spotify_week.py --budgets 1,5,20,100 --users 10

clean:
	rm -rf artifacts .pytest_cache .bench_work src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
