GO ?= go

.PHONY: check build portable fmt vet test race lint npvet analyze fuzz-smoke bench-gate trace-demo tune-smoke fleet-smoke

# check is the tier-1 gate: build + a cross-build for the architectures
# without assembly + formatting + vet + race-enabled tests + cross-registry
# lint + the custom npvet analyzers + the dataflow analyses over the model
# zoo + a five-second run of each fuzz target.
# Pre-commit hooks should run exactly this; CI runs the same nine
# prerequisites as named steps.
check: build portable fmt vet race lint npvet analyze fuzz-smoke

build:
	$(GO) build ./...

# portable cross-builds for arm64 and vets the kernel package there: every
# runner is amd64, where internal/topi's f32 GEMM tile is assembly
# (gemm_amd64.s), so nothing else compiles the pure-Go path the other
# architectures take (gemm_generic.go). Needs no network and runs nothing.
portable:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/topi

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt: files need formatting:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

lint:
	$(GO) run ./cmd/npc -lint

# npvet runs the repo-invariant analyzers (hotpath no-alloc, obs span
# pairing, DeviceLocks ordering) over all first-party Go source.
npvet:
	$(GO) run ./cmd/npvet ./cmd ./internal ./examples

# analyze runs the dataflow analyses — plan safety, quantization ranges,
# device-transfer legality, dead code — over every model-zoo entry.
analyze:
	$(GO) run ./cmd/npc -zoo all -analyze

# fuzz-smoke runs both fuzz targets briefly, each over its committed seed
# corpus plus five seconds of mutation: the partitioner against the BFS oracle
# (error or the oracle's convex partition, never a panic) and the /v1/infer
# decoder against json.Unmarshal (same accept/reject, same values to the bit).
# A failing input is written under the package's testdata/fuzz/ — commit it
# with the fix.
fuzz-smoke:
	$(GO) test ./internal/passes -run '^$$' -fuzz FuzzPartitionForCompiler -fuzztime 5s
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzDecodeInfer -fuzztime 5s

# bench-gate is the blocking, deterministic half of benchmark/: each of the
# six workloads runs for a two-second window and must verify every operation
# (correct, 0 failed) and print exactly the simulated time committed here —
# workload:metric:value, read from the report: line. No wall-clock number
# gates. A change that moves a value on purpose edits this table and says so
# (benchmark/README.md, "the sim-ms rule").
BENCH_GATE := \
	compile_byoc:sim_ms_geomean:4.202291496 \
	compile_pure:sim_ms_geomean:10.66993432 \
	serve_heavy:sim_ms_per_op:0.4769892146 \
	serve_light:sim_ms_per_op:0.05597219048 \
	fleet_light:sim_ms_per_op:0.05597219048 \
	showcase_frames:sim_ms_per_op:0.9631139378
bench-gate:
	@set -e; for row in $(BENCH_GATE); do \
		w=$${row%%:*}; mv=$${row#*:}; m=$${mv%%:*}; v=$${mv#*:}; \
		line=$$(bash benchmark/run.sh --workload $$w --seed 1 --seconds 2 --trace 0 | grep '^report:'); \
		for want in '"correct":true,' '"failed":0,' "\"$$m\":$$v,"; do \
			echo "$$line" | grep -qF "$$want" || { \
				echo "bench-gate: $$w: no $$want in $$line"; exit 1; }; \
		done; \
		echo "bench-gate: $$w ok ($$m $$v)"; \
	done

# tune-smoke exercises the autotuner end to end on one zoo model with a
# tiny budget: the produced records must load cleanly and change at least
# one dispatch decision (nptune -check exits nonzero otherwise). CI runs it
# non-blocking — with a near-zero budget on a noisy shared runner the
# search can legitimately conclude every default is already optimal.
TUNEOUT ?= tune-smoke.json
TUNEBUDGET ?= 8
tune-smoke:
	rm -f $(TUNEOUT)
	$(GO) run ./cmd/nptune -zoo emotion -budget $(TUNEBUDGET) -o $(TUNEOUT)
	$(GO) run ./cmd/nptune -check $(TUNEOUT) -zoo emotion

# fleet-smoke stands up the fleet tier in-process — an nprouter-equivalent
# router fronting two workers that share an artifact store — routes an
# inference through every zoo model, hot-loads a second model version,
# drains one worker, and verifies failover. FLEETOUT receives the final
# fleet-wide /statsz document, FLEETDASH a /dashboardz snapshot, and
# FLEETTRACE the stitched Chrome trace of one routed request (CI uploads
# all three as artifacts).
FLEETOUT ?= fleet-statsz.json
FLEETDASH ?= fleet-dashboard.html
FLEETTRACE ?= fleet-trace.json
fleet-smoke:
	FLEET_SMOKE=1 FLEET_SMOKE_OUT=$(abspath $(FLEETOUT)) \
	FLEET_SMOKE_DASH=$(abspath $(FLEETDASH)) \
	FLEET_SMOKE_TRACE=$(abspath $(FLEETTRACE)) \
		$(GO) test ./internal/fleet/ -run TestFleetSmoke -count=1 -v

# trace-demo compiles and runs the lite emotion model with profiling on and
# writes demo-trace.json — a Chrome/Perfetto trace with all three clock
# domains (compile passes, per-node executor spans, simulated device rows).
# CI uploads the file as an artifact.
TRACEOUT ?= demo-trace.json
trace-demo:
	$(GO) run ./cmd/npc -zoo emotion -run -profile -trace $(TRACEOUT)
