GO ?= go

.PHONY: check build fmt vet test race lint npvet analyze fuzz-smoke bench bench-compare trace-demo tune-smoke fleet-smoke

# check is the tier-1 gate: build + formatting + vet + race-enabled tests +
# cross-registry lint + the custom npvet analyzers + the dataflow analyses
# over the model zoo + a five-second run of the partitioner fuzz target. CI
# and pre-commit hooks should run exactly this.
check: build fmt vet race lint npvet analyze fuzz-smoke

build:
	$(GO) build ./...

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

# fuzz-smoke runs the partitioner's fuzz target briefly: the committed seed
# corpus plus five seconds of mutation, each input checked against the BFS
# oracle (error or the oracle's convex partition, never a panic). A failing
# input is written under internal/passes/testdata/fuzz/ — commit it with the fix.
fuzz-smoke:
	$(GO) test ./internal/passes -run '^$$' -fuzz FuzzPartitionForCompiler -fuzztime 5s

# bench writes the machine-readable run log to BENCH_PR14.json (test2json
# event stream, one JSON object per line) while echoing the human-readable
# benchmark lines to stdout. Override BENCHTIME for a quick smoke run
# (e.g. make bench BENCHTIME=1x).
BENCHTIME ?= 1s
BENCHOUT ?= BENCH_PR14.json
bench:
	$(GO) test -run '^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) -json . | \
		tee $(BENCHOUT) | \
		sed -n 's/.*"Output":"\(.*\)\\n"}$$/\1/p' | sed -e 's/\\t/\t/g' -e 's/\\u003e/>/g'

# bench-compare diffs a fresh bench run against the committed baseline and
# exits nonzero on a >10% ns/op or allocs/op regression. CI runs it
# non-blocking (machine noise on shared runners is real); use it locally to
# spot-check a perf-sensitive change.
BENCHBASE ?= BENCH_PR14.json
bench-compare:
	$(GO) run ./cmd/npbench -compare $(BENCHBASE) bench-new.json

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
