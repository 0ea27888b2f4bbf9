PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-compiled test-mp perfbench-test lint lint-strict docs-check analysis static-check obs report bench-smoke bench-check resilience-check serve-check check

test:
	$(PYTHON) -m pytest -x -q

# Same tier-1 suite under the compiled step-plan backend (bit-identical
# by contract; hooks that need per-launch dispatch fall back visibly).
test-compiled:
	REPRO_BACKEND=compiled $(PYTHON) -m pytest -x -q

# Spawn-mode smoke: a focused tier-1 subset executed through the
# process-parallel mp backend (ambient $REPRO_BACKEND selection).  Every
# stepping simulation spawns its own worker pool, so the *full* suite
# under mp would be pathological; the dedicated suite plus the
# facade/physics subsets cover the contract.
test-mp:
	REPRO_BACKEND=mp $(PYTHON) -m pytest -x -q tests/test_mp_backend.py \
		tests/test_simulation.py tests/test_fusion_equivalence.py

# The benchmark's self-tests.  perfbench/spans.py wraps program hook
# points (Engine.__init__/initialize, each collision model's collide,
# Runtime.launch(fn=), the backend classes), so a refactor that renames
# or reshapes one of them shows up here, not only in a benchmark run.
perfbench-test:
	$(PYTHON) -m pytest perfbench/tests -q

# ruff and mypy are optional dev tools (pip install -e ".[lint]").
# Skipping when absent is deliberate: the guard only bypasses the tool
# lookup, never a real lint failure.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed -- skipping (pip install -e '.[lint]')"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed -- skipping (pip install -e '.[lint]')"; \
	fi

# CI variant of `lint`: the tools are mandatory.  CI installs them
# unconditionally (pip install -e ".[lint]"), so a missing tool there is
# an environment bug, not something to skip over.
lint-strict:
	@command -v ruff >/dev/null 2>&1 || { echo "lint-strict: ruff not installed"; exit 1; }
	@command -v mypy >/dev/null 2>&1 || { echo "lint-strict: mypy not installed"; exit 1; }
	ruff check src tests benchmarks examples
	mypy

# Documentation gate: pydocstyle D rules on the public API surface of
# repro.backend / repro.neon (scoped in pyproject.toml) plus the
# internal markdown link/anchor checker.  Like `lint`, a missing ruff
# is skipped locally; CI installs it and so enforces both halves.
docs-check:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src/repro/backend src/repro/neon; \
	else \
		echo "ruff not installed -- skipping docstring lint (pip install -e '.[lint]')"; \
	fi
	$(PYTHON) tools/check_links.py

analysis:
	$(PYTHON) -m repro analysis --all-configs

# Declaration-only gate: symbolic access sets, fusion-legality proofs,
# lint pass, step-plan certificates, static ⊇ dynamic cross-check and
# the seeded-illegal negative control.
static-check:
	$(PYTHON) -m repro analysis --static --all-configs --cert-dir certificates

# Telemetry smoke: trace + metrics artifacts for the Fig. 2 golden cavity.
obs:
	$(PYTHON) -m repro obs --workload cavity2d --config case --out-dir obs-artifacts
	$(PYTHON) -m repro obs --workload cavity2d --config baseline --out-dir obs-artifacts

# Observatory run report: trace + metrics + roofline + lint + certificate
# digest + event log for the Fig. 2 golden cavity, text/HTML/JSON.
report:
	$(PYTHON) -m repro report --workload cavity2d --config case \
		--out-dir report-artifacts

# Quick benchmark pass that appends to BENCH_HISTORY.jsonl: one small
# measurement per direction-setting config (pytest-benchmark not needed).
bench-smoke:
	$(PYTHON) -m repro bench --out-dir $${BENCH_OUT_DIR:-.}

# The regression gate over the appended trajectory.  Lenient by default:
# warnings (< 5x) inform, hard regressions (>= 5x) fail the target.
bench-check: bench-smoke
	$(PYTHON) -m repro history --check

# Fault matrix: inject NaN / kernel / OOM faults into every fusion
# config and require bit-identical recovery plus visible telemetry
# (retries_total, rollback events).  Exit status gates.
resilience-check:
	$(PYTHON) -m repro resilience --out-dir resilience-artifacts

# Job-server gate: a chaos-flooded multi-tenant demo (exit code fails on
# any lost job) plus the focused fairness / restart-resume / chaos tests.
serve-check:
	$(PYTHON) -m repro serve --jobs 12 --tenants 3 --workers 2 \
		--chaos 0.3 --seed 1 --out-dir serve-artifacts
	$(PYTHON) -m repro serve --summary --out-dir serve-artifacts
	$(PYTHON) -m pytest -x -q tests/test_serve.py -k "fair or resume or chaos"

check: lint docs-check test test-compiled test-mp perfbench-test analysis static-check resilience-check serve-check report bench-check
