GO ?= go

.PHONY: check build portable no-fma fmt vet test race lint npvet analyze fuzz-smoke bench-gate trace-demo tune-smoke fleet-smoke

# check is the tier-1 gate: build + a cross-build for the architectures
# without assembly + the no-FMA scan of the kernel package + formatting +
# vet + race-enabled tests + cross-registry lint + the custom npvet
# analyzers + the dataflow analyses over the model zoo + a five-second run
# of each fuzz target.
# Pre-commit hooks should run exactly this; CI runs the same ten
# prerequisites as named steps.
check: build portable no-fma fmt vet race lint npvet analyze fuzz-smoke

build:
	$(GO) build ./...

# portable cross-builds for arm64 and vets the kernel package there, then
# runs the kernel package's tests as 386, which amd64 runners execute
# natively: every runner is amd64, where internal/topi's GEMM tiles are
# assembly (gemm_amd64.s), so nothing else compiles or runs the pure-Go tiles
# the other architectures take (gemm_generic.go) — the 386 run puts them
# under every bitwise pin. Needs no network.
portable:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/topi
	GOARCH=386 $(GO) test ./internal/topi

# no-fma enforces the kernels' multiply-then-add rule (internal/topi/gemm.go):
# it builds internal/topi's test binary for amd64 at GOAMD64=v1 and at v3 —
# where the toolchain may use FMA — and fails if package topi's code holds
# any VFMADD/VFNMADD/VFMSUB/VFNMSUB, then runs the package's tests at v3. A
# fused multiply-add rounds once where every reference loop rounds twice, so
# one would break the bitwise pins on some hosts and not others. The scan
# reads the compiler's and the assembler's own listings (-S): go tool
# objdump does not decode VEX-encoded instructions, and prints an FMA as an
# unrelated legacy opcode. Every TEXT routine of gemm_amd64.s must appear
# in the assembler's listing, so a new tile cannot escape the scan.
# amd64 never fuses without math.FMA; arm64, the paper's target class, fuses
# x*y + z on its own wherever a product is not an explicit conversion. So the
# scan then reads the arm64 compiler listing of the test binaries of the
# packages whose float results are pinned — the kernels, the tensor
# initializers, the frame renderer and resize, the SSD decode, and the
# reference loops of their tests — for any FMADD/FMSUB/FNMADD/FNMSUB.
no-fma:
	@set -e; for v in v1 v3; do \
		lst=$$(GOARCH=amd64 GOAMD64=$$v $(GO) test -c -o /dev/null -gcflags=-S -asmflags=-S ./internal/topi 2>&1) || \
			{ echo "$$lst" | grep -v '^[[:space:]]' ; exit 1; }; \
		for f in $$(sed -n 's/^TEXT ·\([A-Za-z0-9]*\)(SB).*/\1/p' internal/topi/gemm_amd64.s); do \
			echo "$$lst" | grep -qE "topi\.$$f STEXT.* asm " || \
				{ echo "no-fma: GOAMD64=$$v: $$f is not in the assembler's listing"; exit 1; }; \
		done; \
		fma=$$(echo "$$lst" | grep -E '[[:space:]]VFN?M(ADD|SUB)' || true); \
		if [ -n "$$fma" ]; then echo "no-fma: GOAMD64=$$v: fused multiply-add in package topi:"; \
			echo "$$fma"; exit 1; fi; \
		echo "no-fma: GOAMD64=$$v: no FMA in package topi"; \
	done
	@set -e; for p in topi tensor video app; do \
		lst=$$(GOARCH=arm64 $(GO) test -c -o /dev/null -gcflags=-S ./internal/$$p 2>&1) || \
			{ echo "$$lst" | grep -v '^[[:space:]]' ; exit 1; }; \
		fma=$$(echo "$$lst" | grep -E '[[:space:]]F(N)?M(ADD|SUB)[SD][[:space:]]' || true); \
		if [ -n "$$fma" ]; then echo "no-fma: GOARCH=arm64: fused multiply-add in package $$p:"; \
			echo "$$fma"; exit 1; fi; \
		echo "no-fma: GOARCH=arm64: no FMA in package $$p"; \
	done
	GOARCH=amd64 GOAMD64=v3 $(GO) test ./internal/topi

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

# fuzz-smoke runs four fuzz targets briefly, each over its seed corpus plus
# five seconds of mutation: the partitioner against the BFS oracle (error or
# the oracle's convex partition, never a panic), the /v1/infer decoder against
# json.Unmarshal (same accept/reject, same values to the bit), and the ONNX and
# TorchScript importers over a serialized zoo model (error or module, never a
# panic). A failing input is written under the package's testdata/fuzz/ —
# commit it with the fix.
fuzz-smoke:
	$(GO) test ./internal/passes -run '^$$' -fuzz FuzzPartitionForCompiler -fuzztime 5s
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzDecodeInfer -fuzztime 5s
	$(GO) test ./internal/models -run '^$$' -fuzz FuzzFromONNX -fuzztime 5s
	$(GO) test ./internal/models -run '^$$' -fuzz FuzzFromTorch -fuzztime 5s

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
# tiny budget, then gates on what is deterministic (nptune -check): the
# records load, every kernel record names a task of the model, and writing
# them back reproduces the file byte for byte. How many dispatch decisions
# they change is printed, not required — with a near-zero budget on a noisy
# shared runner the search can legitimately keep every default. Blocking in
# CI.
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
