# Development entry points for the ADAssure reproduction.

.PHONY: install test bench bench-compare bench-sim bench-probes experiments examples clean

install:
	pip install -e . || pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

# Benchmark every evaluation artifact and archive the timings under
# .benchmarks/ so bench-compare can diff runs.
bench:
	pytest benchmarks/ --benchmark-only --benchmark-autosave

# Compare the two most recent autosaved benchmark runs.
bench-compare:
	pytest-benchmark compare --group-by name

# Benchmark the batched lockstep simulation engine against the serial
# oracle (64 lanes, bit-identity verified) and write BENCH_sim.json.
bench-sim:
	python -m repro.sim.batch --lanes 64 --output BENCH_sim.json

# Benchmark round-batched counterfactual probing and the E10-E13 planner
# sweeps against their serial oracles (bit-identity verified) and write
# BENCH_probes.json.
bench-probes:
	python benchmarks/bench_probes.py --output BENCH_probes.json

# Regenerate every evaluation table/figure at full size (a few minutes).
experiments:
	python -m repro.cli experiment all | tee experiments_full_output.txt

examples:
	@set -e; for f in examples/*.py; do \
		echo "== $$f"; python $$f > /dev/null && echo "   ok"; \
	done

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
