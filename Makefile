# Development entry points. `make check` is the pre-merge gate: the full
# tier-1 test suite, the throughput benches (which enforce the
# event-scheduler, compiled-kernel, batch-kernel, time-warp,
# flight-recorder, warm-pool/compile-cache and trace-service floors and
# refresh BENCH_kernel.json / BENCH_compiled.json / BENCH_batch.json /
# BENCH_replay.json / BENCH_flightrec.json / BENCH_warm.json /
# BENCH_service.json — every refreshed snapshot is also appended to the
# bench-history table in benchmarks/results/results.vrs), and the fault
# campaign (200 seeded faults across every kind; fails on any silent
# wrong-accept).

PYTHON ?= python
PYTEST := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) $(PYTHON) -m pytest

.PHONY: check test test-schedulers bench-kernel bench-compiled bench-batch \
        bench-replay bench-flightrec bench-warm bench-service bench \
        artifacts faults faults-batched faults-warm serve-smoke

check: test bench-kernel bench-compiled bench-batch bench-replay \
       bench-flightrec bench-warm bench-service faults

faults:          ## seeded 200-fault injection campaign (containment gate)
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) \
	  $(PYTHON) -m repro.tools campaign --faults 200 --seed 0

faults-batched:  ## batched campaign smoke: record legs 16 per batch kernel
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) \
	  $(PYTHON) -m repro.tools campaign --faults 60 --seed 0 --batch-size 16

faults-warm:     ## compiled-kernel campaign smoke over the persistent cache
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) \
	  $(PYTHON) -m repro.tools campaign --faults 60 --seed 0 \
	  --scheduler compiled --cache-dir .repro-cache/schedules

test:            ## tier-1: the full unit/integration suite
	$(PYTEST) -x -q

test-schedulers: ## the 3-way differential + levelization suites (CI matrix)
	$(PYTEST) tests/test_scheduler_equivalence.py tests/test_compile.py -q

bench-kernel:    ## kernel throughput + BENCH_kernel.json (speedup gate)
	$(PYTEST) benchmarks/test_simulator_throughput.py -q -s

bench-compiled:  ## compiled kernel + BENCH_compiled.json (per-leg gates)
	$(PYTEST) benchmarks/test_compiled_kernel.py -q -s

bench-batch:     ## batched campaign kernel + BENCH_batch.json (>=4x gate)
	$(PYTEST) benchmarks/test_batch_kernel.py -q -s

bench-replay:    ## replay throughput + BENCH_replay.json (time-warp gate)
	$(PYTEST) benchmarks/test_replay_speed.py -q -s

bench-flightrec: ## flight recorder + BENCH_flightrec.json (ratio/overhead)
	$(PYTEST) benchmarks/test_flight_recorder.py -q -s

bench-warm:      ## compile cache + warm pool + BENCH_warm.json (floors)
	$(PYTEST) benchmarks/test_warm_pool.py -q -s

bench-service:   ## trace-service daemon + BENCH_service.json (batch/ingest)
	$(PYTEST) benchmarks/test_service.py -q -s

serve-smoke:     ## end-to-end daemon smoke: subprocess, jobs, ingest, drain
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) \
	  $(PYTHON) -m repro.service.smoke

bench:           ## every benchmark (regenerates benchmarks/results/)
	$(PYTEST) benchmarks -q -s

artifacts:       ## regenerate the paper artefacts via the vidi CLI
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) \
	  $(PYTHON) -m repro.tools artifact all
