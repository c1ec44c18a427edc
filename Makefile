.PHONY: install test test-kernels test-faults test-loadbalance test-transport \
	test-health bench bench-quick bench-step bench-transport \
	bench-history bench-selftest trace flame dashboard clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

# Force-kernel suites with RuntimeWarning promoted to an error: a pad
# slot or self-pair that produces inf/NaN fails instead of warning.
test-kernels:
	pytest -q -W error::RuntimeWarning tests/test_gravity_blocked.py \
	       tests/test_gravity_treewalk.py tests/test_gravity_kernels.py

# Full fault-injection + differential-verification harness, including the
# harness_slow matrix the default run skips (see docs/TESTING.md).
test-faults:
	pytest tests/harness -m "harness_slow or not harness_slow"

# Load-balance feedback loop: property + convergence suites including
# the harness_slow 8-rank variant (docs/OBSERVABILITY.md §5b).
test-loadbalance:
	pytest tests/harness/test_loadbalance_properties.py \
	       tests/harness/test_loadbalance_convergence.py \
	       tests/test_parallel_feedback.py \
	       -m "harness_slow or not harness_slow"

# Run-health telemetry + crash forensics: heartbeat/monitor/bundle unit
# suites, the post-mortem analyzer contract, the fault-matrix
# localization harness (crash/slowdown/stall/deadlock on both
# transports) and the dashboard health panel
# (docs/OBSERVABILITY.md §13).
test-health:
	pytest tests/test_obs_health.py tests/test_obs_postmortem.py \
	       tests/harness/test_health_forensics.py \
	       tests/test_obs_dashboard.py -q
	pytest benchmarks/bench_obs_overhead.py -q \
	       -k "heartbeat or disabled_tracer"

# Cross-transport equivalence matrix: process-transport unit + property
# suite, trace determinism on both substrates, bitwise differential
# subset, and fault parity (docs/TRANSPORTS.md).
test-transport:
	pytest tests/test_transport_process.py tests/test_obs_determinism.py
	pytest tests/harness/test_differential.py -k "transport or process"
	pytest tests/harness/test_faults.py -k "parity or transport or crash"

bench:
	pytest benchmarks/ --benchmark-only

# Fast-path vs reference force pipeline: golden interaction-count check
# plus the per-phase before/after table (docs/PERFORMANCE.md).  Scale
# the timed comparison with STEP_BENCH_N / STEP_BENCH_STEPS.
bench-step:
	pytest benchmarks/bench_step_pipeline.py -q

# Threads-vs-process wall-clock at the step-pipeline config; records
# BENCH_transport.json (speedup gate arms only on >=4 cores).  Scale
# with TRANSPORT_BENCH_N / TRANSPORT_BENCH_STEPS.
bench-transport:
	pytest benchmarks/bench_transport.py -q

# Registered-benchmark runner: append one run of the two CI benches to
# benchmarks/history/*.jsonl, then judge the trajectory -- deterministic
# count metrics gate hard (exit 1 on drift), wall-clock is advisory
# (docs/PERFORMANCE.md §4, python -m repro.obs.bench --help).
bench-history:
	PYTHONPATH=src:$$PYTHONPATH python -m repro.obs.bench run step_pipeline
	PYTHONPATH=src:$$PYTHONPATH python -m repro.obs.bench run obs_overhead
	PYTHONPATH=src:$$PYTHONPATH python -m repro.obs.bench history step_pipeline \
	       --threshold 0.25 --min-abs 0.05
	PYTHONPATH=src:$$PYTHONPATH python -m repro.obs.bench history obs_overhead \
	       --threshold 0.25 --min-abs 0.05

# Repo benchmark self-test (~30 s): every BENCHMARK.json workload at a
# tiny N, untraced and traced.  The traced run installs the per-layer
# probe (mwbench/probe.py), so a renamed or removed pipeline function
# it wraps fails here.
bench-selftest:
	python3 mwbench/selftest.py

# The subset that regenerates every table/figure without the long
# evolution runs (fig3, equal-mass heating).
bench-quick:
	pytest benchmarks/bench_fig1_kernel.py benchmarks/bench_fig4_weak_scaling.py \
	       benchmarks/bench_table2_breakdown.py benchmarks/bench_time_to_solution.py \
	       benchmarks/bench_state_of_the_art.py --benchmark-only

# Traced 4-rank smoke run: writes trace.json + metrics.txt (and streams
# trace.jsonl incrementally during the run), then prints the Table II
# report reconstructed from the trace (docs/OBSERVABILITY.md).
trace:
	PYTHONPATH=src:$$PYTHONPATH python -m repro.obs.smoke --ranks 4 --n 2000 \
	       --steps 2 --trace-out trace.json --metrics-out metrics.txt \
	       --jsonl-out trace.jsonl
	PYTHONPATH=src:$$PYTHONPATH python -m repro.obs.report trace.json --validate

# Collapsed-stack flamegraph from the `make trace` output, fold-back
# checked; feed trace.folded to flamegraph.pl or speedscope.
flame: trace
	PYTHONPATH=src:$$PYTHONPATH python -m repro.obs.export trace.json \
	       --out trace.folded --check

# Live terminal dashboard over a small demo run (ANSI redraw per step).
dashboard:
	PYTHONPATH=src:$$PYTHONPATH python -m repro.obs.dashboard --ranks 2 \
	       --n 2000 --steps 6

clean:
	rm -rf benchmarks/results .pytest_cache src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
