# Development entry points. `make check` is the pre-merge gate: the full
# tier-1 test suite, the throughput benches (which enforce the
# compiled-kernel, record-warp, replay time-warp, flight-recorder,
# warm-pool campaign and trace-service floors and refresh
# BENCH_compiled.json / BENCH_record_warp.json / BENCH_replay.json /
# BENCH_flightrec.json / BENCH_warm.json /
# BENCH_service.json — every refreshed snapshot is also appended to the
# bench-history table in benchmarks/results/results.vrs), and the fault
# campaign (200 seeded faults across every kind; fails on any silent
# wrong-accept).

PYTHON ?= python
PYTEST := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) $(PYTHON) -m pytest

.PHONY: check test test-schedulers digests bench-compiled \
        bench-record-warp bench-replay bench-flightrec bench-warm \
        bench-service bench artifacts faults faults-warm serve-smoke

check: test bench-compiled bench-record-warp bench-replay \
       bench-flightrec bench-warm bench-service faults

faults:          ## seeded 200-fault injection campaign (containment gate)
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) \
	  $(PYTHON) -m repro.tools campaign --faults 200 --seed 0

faults-warm:     ## compiled-kernel campaign smoke over the persistent cache
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) \
	  $(PYTHON) -m repro.tools campaign --faults 60 --seed 0 \
	  --scheduler compiled --cache-dir .repro-cache/schedules

test:            ## tier-1: the full unit/integration suite
	$(PYTEST) -x -q

test-schedulers: ## declaration audit + differential, rank walk, replayer, sharded-replay, extension-app, time-warp, record-warp + host/store/DMA/AXI-endpoint/interconnect unit suites (CI matrix)
	$(PYTEST) tests/test_scheduler_equivalence.py tests/test_compile.py \
	  tests/test_replayer_unit.py tests/test_sharded_replay.py \
	  tests/test_extension_registry.py tests/test_time_warp.py \
	  tests/test_record_warp.py tests/test_platform.py tests/test_store.py \
	  tests/test_dma_engine_units.py tests/test_axi_endpoints.py \
	  tests/test_interconnect.py -q

digests:         ## determinism digests: 96 record+replay cases, warp on and off, vs tests/data/digests.json
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) \
	  $(PYTHON) tests/digests.py

bench-compiled:  ## compiled kernel + BENCH_compiled.json (per-leg gates)
	$(PYTEST) benchmarks/test_compiled_kernel.py -q -s

bench-record-warp: ## record-mode time warp + BENCH_record_warp.json (>=4x gate)
	$(PYTEST) benchmarks/test_record_warp.py -q -s

bench-replay:    ## replay throughput + BENCH_replay.json (time-warp gate)
	$(PYTEST) benchmarks/test_replay_speed.py -q -s

bench-flightrec: ## flight recorder + BENCH_flightrec.json (ratio/overhead)
	$(PYTEST) benchmarks/test_flight_recorder.py -q -s

bench-warm:      ## warm-pool campaign + BENCH_warm.json (1.3x floor)
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
