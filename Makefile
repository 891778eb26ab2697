# Convenience targets for the MIRA reproduction.

PYTHON ?= python

.PHONY: install test bench bench-full report reproduce examples clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/ -q

test-fast:
	$(PYTHON) -m pytest tests/ -q -x -p no:cacheprovider \
		--ignore=tests/test_integration_shapes.py \
		--ignore=tests/test_analysis.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

bench-full:
	REPRO_SCALE=full $(PYTHON) -m pytest benchmarks/ --benchmark-only -q

report:
	$(PYTHON) -m repro report

reproduce:
	$(PYTHON) -m repro reproduce

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/design_space_sweep.py
	$(PYTHON) examples/nuca_cmp_workload.py
	$(PYTHON) examples/thermal_shutdown_study.py
	$(PYTHON) examples/extensions_tour.py
	$(PYTHON) examples/saturation_analysis.py
	$(PYTHON) examples/telemetry_walkthrough.py

clean:
	rm -rf results .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
