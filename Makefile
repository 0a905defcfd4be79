# RichNote reproduction -- common targets.

PYTHON ?= python

.PHONY: install test chaos lint census bench-repo artifacts examples clean

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

# Reachability census (~2 min): runs every CLI verb, the examples and the
# repo benchmark with a profile hook in every process, and fails on a src/
# function none of them enters unless tests/census_allow.txt says why.
census:
	PYTHONPATH=src $(PYTHON) tests/census.py

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
