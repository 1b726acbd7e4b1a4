package main

// The benchmark's vocabulary: every workload and every metric it can print.
// BENCHMARK.json, README.md and the printed report all follow this table
// (TestSpecMatchesBenchmarkJSON pins the first).

// workloadSpec names one workload and why it exists.
type workloadSpec struct {
	Name string
	// Why is the one-line reason recorded in BENCHMARK.json.
	Why string
	// TailPct is the percentile tail_ms reports on this workload: the highest
	// of 99/95/75 that keeps at least ten samples beyond it at the sample
	// count a 12 s window produces on the 2-core runner.
	TailPct float64
}

var workloads = []workloadSpec{
	{"compile_byoc", "BYOC build of all 14 zoo models: region merging, nir conversion and neuron compile do ~95% of the work; a PR that moves the exact sim_ms_geomean printed with it must say so", 75},
	{"compile_pure", "TVM-only and NeuroPilot-only builds of the same models: partitioner idle, so region-merge work must not move it", 95},
	{"serve_heavy", "showcase trio over HTTP, 2 closed-loop clients: kernel/executor-bound, serving-path changes predict no change; a PR that moves the exact sim_ms_per_op printed with it must say so", 95},
	{"serve_light", "tiny keras model over HTTP, seed and explicit-input requests alternating: serve codec, queue and net/http are the bulk", 99},
	{"fleet_light", "same tiny model through fleet.Router in front of 2 workers: adds exactly the router hop, registry alias and artifact cache", 99},
	{"showcase_frames", "app.Showcase.ProcessFrame over a seeded 32-frame ring, library path: the paper's application, no serve/HTTP at all", 95},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricSpec describes one metric.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end metric
	// may worsen before it is a regression (0 for per-layer metrics).
	Bound float64
	// Layer is the package the metric measures ("" for end-to-end metrics).
	Layer string
	// Moves names the end-to-end metric and workload the layer metric should
	// move (README's interaction column).
	Moves string
}

// endToEnd is what a user of npc / npserve / nprouter / showcase sees. Every
// workload reports every one of them; for compile_* one op is one sweep over
// the zoo, for serving one request, for showcase_frames one frame.
//
// The bounds are what CALIBRATION.md shows the driver's own acceptance protocol
// (ten seeds, twice, minutes apart, unpaired) can hold on the runner, a shared
// VM whose speed moves by 10-30% in phases of minutes: in a quiet phase the
// wall-clock spreads are 1-6%, across phases the quartile spread reached 24%
// and the shift between two sets' medians 25%. A bound below that would refuse
// unchanged code, so the three wall-clock metrics carry the contract's maximum
// and a claim or a no-change prediction under 25% is settled by paired,
// alternating runs (README, "The bounds, and comparing two commits") and the
// nine-wins-in-ten rule. alloc_kb_per_op does not read a clock and repeats to
// 0.4% or better. tail_ms broke 25% in four of six comparisons and is
// therefore per-layer, as the issue rules for a metric that cannot hold its
// bound.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: "lower", Bound: 0.01},
}

// perLayer metrics have no bound; a workload a metric does not apply to
// reports it as 0.
var perLayer = []metricSpec{
	// Client-observed tail latency, at the workload's TailPct. Untraced runs
	// print it from the full window; the traced pass from its untraced window.
	{Name: "tail_ms", Unit: "ms", Better: "lower", Layer: "client", Moves: "client-observed tail latency; p99/p95/p75 by workload, ten samples beyond"},
	// Deterministic run time of the generated code on the simulated SoC. Exact,
	// so the driver's contract keeps them out of endToEnd (it rejects a time
	// that reads the same on every run); untraced runs print them all the same,
	// and a change that moves one must declare it.
	{Name: "sim_ms_geomean", Unit: "sim-ms", Better: "lower", Layer: "soc", Moves: "generated-code time on compile_*, judged together with p50_ms there; exact"},
	{Name: "sim_ms_per_op", Unit: "sim-ms", Better: "lower", Layer: "soc", Moves: "generated-code time per request/frame on serve_*, fleet_light, showcase_frames; exact"},

	// Compile side, one staged sweep (median of per-sweep sums).
	{Name: "models.import_ms", Unit: "ms", Better: "lower", Layer: "models", Moves: "setup_s on compile_*"},
	{Name: "passes.simplify_ms", Unit: "ms", Better: "lower", Layer: "passes", Moves: "p50_ms on compile_pure"},
	{Name: "passes.fold_ms", Unit: "ms", Better: "lower", Layer: "passes", Moves: "p50_ms on compile_pure"},
	{Name: "passes.cse_ms", Unit: "ms", Better: "lower", Layer: "passes", Moves: "p50_ms on compile_pure"},
	{Name: "passes.fuse_ms", Unit: "ms", Better: "lower", Layer: "passes", Moves: "p50_ms on compile_pure"},
	{Name: "nir.partition_ms", Unit: "ms", Better: "lower", Layer: "nir", Moves: "p50_ms on compile_byoc (~90% of it); 0 on compile_pure"},
	{Name: "nir.convert_ms", Unit: "ms", Better: "lower", Layer: "nir", Moves: "p50_ms on compile_*"},
	{Name: "neuron.compile_ms", Unit: "ms", Better: "lower", Layer: "neuron", Moves: "p50_ms on compile_*"},
	{Name: "verify.module_ms", Unit: "ms", Better: "lower", Layer: "verify", Moves: "p50_ms on compile_pure"},
	{Name: "verify.plan_ms", Unit: "ms", Better: "lower", Layer: "verify", Moves: "p50_ms on compile_*"},
	{Name: "runtime.build_ms", Unit: "ms", Better: "lower", Layer: "runtime", Moves: "p50_ms on compile_*"},
	{Name: "runtime.plan_ms", Unit: "ms", Better: "lower", Layer: "runtime", Moves: "p50_ms on compile_*"},
	{Name: "runtime.estimate_ms", Unit: "ms", Better: "lower", Layer: "runtime", Moves: "p50_ms on compile_*"},
	{Name: "runtime.export_ms", Unit: "ms", Better: "lower", Layer: "runtime", Moves: "setup_s on fleet_light"},
	{Name: "runtime.load_ms", Unit: "ms", Better: "lower", Layer: "runtime", Moves: "setup_s on fleet_light"},
	{Name: "runtime.key_ms", Unit: "ms", Better: "lower", Layer: "runtime", Moves: "setup_s on fleet_light"},
	{Name: "bench.build_unattributed_ratio", Unit: "ratio", Better: "lower", Layer: "bench", Moves: "invariant: staged rows sum to runtime.build_ms (target <= 0.10)"},
	{Name: "relay.calls", Unit: "count", Better: "lower", Layer: "relay", Moves: "every later compile row"},
	{Name: "nir.regions", Unit: "count", Better: "lower", Layer: "nir", Moves: "explains sim_ms_geomean"},
	{Name: "nir.region_calls", Unit: "count", Better: "higher", Layer: "nir", Moves: "explains sim_ms_geomean"},
	{Name: "neuron.operations", Unit: "count", Better: "lower", Layer: "neuron", Moves: "explains neuron.compile_ms"},
	{Name: "runtime.plan_nodes", Unit: "count", Better: "lower", Layer: "runtime", Moves: "explains runtime.plan_ms"},
	{Name: "runtime.arena_mb", Unit: "MB", Better: "lower", Layer: "runtime", Moves: "explains alloc_kb_per_op"},
	{Name: "runtime.naive_mb", Unit: "MB", Better: "lower", Layer: "runtime", Moves: "explains alloc_kb_per_op"},
	{Name: "runtime.artifact_mb", Unit: "MB", Better: "lower", Layer: "runtime", Moves: "explains runtime.export_ms"},
	{Name: "compile.skipped_cells", Unit: "count", Better: "lower", Layer: "runtime", Moves: "NP-only cells with no statistics on compile_pure"},

	// Serving side, replay of one seeded sequence at increasing depth.
	{Name: "runtime.run_ms", Unit: "ms", Better: "lower", Layer: "runtime", Moves: "p50_ms, ops_per_s on serve_heavy, showcase_frames"},
	{Name: "serve.submit_ms", Unit: "ms", Better: "lower", Layer: "serve", Moves: "p50_ms on serve_light, fleet_light"},
	{Name: "serve.codec_ms", Unit: "ms", Better: "lower", Layer: "serve", Moves: "p50_ms on serve_light"},
	{Name: "serve.codec_seed_ms", Unit: "ms", Better: "lower", Layer: "serve", Moves: "p50_ms on serve_light (output-heavy class)"},
	{Name: "serve.codec_explicit_ms", Unit: "ms", Better: "lower", Layer: "serve", Moves: "p50_ms on serve_light (input-decode-heavy class)"},
	{Name: "serve.http_ms", Unit: "ms", Better: "lower", Layer: "net/http", Moves: "p50_ms on serve_light; bounds what is ours to optimise"},
	{Name: "fleet.route_ms", Unit: "ms", Better: "lower", Layer: "fleet", Moves: "p50_ms, ops_per_s on fleet_light only"},
	{Name: "bench.roundtrip_ms", Unit: "ms", Better: "lower", Layer: "bench", Moves: "traced single-client round trip the rows above sum to"},
	{Name: "bench.run_share", Unit: "ratio", Better: "lower", Layer: "bench", Moves: "runtime.run_ms / bench.roundtrip_ms (<= 0.25 serve_light, >= 0.75 serve_heavy)"},

	// Read after the measured window through Server.Stats() and /statsz.
	{Name: "serve.queue_wait_ms", Unit: "ms", Better: "lower", Layer: "serve", Moves: "tail_ms: rises before ops_per_s stops rising"},
	{Name: "serve.exec_ms", Unit: "ms", Better: "lower", Layer: "serve", Moves: "p50_ms on serve_heavy"},
	{Name: "serve.mean_batch", Unit: "count", Better: "higher", Layer: "serve", Moves: "ops_per_s once batching is on"},
	{Name: "serve.rejected", Unit: "count", Better: "lower", Layer: "serve", Moves: "failed ops"},
	{Name: "serve.expired", Unit: "count", Better: "lower", Layer: "serve", Moves: "failed ops"},
	{Name: "serve.seed_p50_ms", Unit: "ms", Better: "lower", Layer: "serve", Moves: "p50_ms on serve_light, seed class"},
	{Name: "serve.explicit_p50_ms", Unit: "ms", Better: "lower", Layer: "serve", Moves: "p50_ms on serve_light, explicit class"},
	{Name: "fleet.retried", Unit: "count", Better: "lower", Layer: "fleet", Moves: "tail_ms on fleet_light"},
	{Name: "fleet.failed", Unit: "count", Better: "lower", Layer: "fleet", Moves: "failed ops on fleet_light"},
	{Name: "fleet.worker_share_max", Unit: "ratio", Better: "lower", Layer: "fleet", Moves: "tail_ms, ops_per_s on fleet_light"},
	{Name: "registry.cold_build_ms", Unit: "ms", Better: "lower", Layer: "registry", Moves: "setup_s on fleet_light"},
	{Name: "registry.disk_load_ms", Unit: "ms", Better: "lower", Layer: "registry", Moves: "setup_s on fleet_light"},
	{Name: "registry.mem_hit_ms", Unit: "ms", Better: "lower", Layer: "registry", Moves: "setup_s on fleet_light"},

	// Kernel share of one inference (GraphModule.SetProfiling spans by op).
	{Name: "topi.conv_ms", Unit: "ms", Better: "lower", Layer: "topi", Moves: "p50_ms on serve_heavy and showcase_frames together"},
	{Name: "topi.dense_ms", Unit: "ms", Better: "lower", Layer: "topi", Moves: "p50_ms on serve_heavy and showcase_frames together"},
	{Name: "topi.qnn_ms", Unit: "ms", Better: "lower", Layer: "topi", Moves: "p50_ms on serve_heavy and showcase_frames together"},
	{Name: "topi.other_ms", Unit: "ms", Better: "lower", Layer: "topi", Moves: "p50_ms on serve_heavy and showcase_frames together"},
	{Name: "neuron.execute_ms", Unit: "ms", Better: "lower", Layer: "neuron", Moves: "p50_ms on serve_heavy and showcase_frames together"},
	// Stand-alone topi.Run on the shapes bench_test.go uses.
	{Name: "topi.conv2d_f32_ms", Unit: "ms", Better: "lower", Layer: "topi", Moves: "topi.conv_ms, neuron.execute_ms"},
	{Name: "topi.qnn_conv2d_ms", Unit: "ms", Better: "lower", Layer: "topi", Moves: "topi.qnn_ms, neuron.execute_ms"},
	{Name: "topi.qnn_conv2d_fused_ms", Unit: "ms", Better: "lower", Layer: "topi", Moves: "neuron.execute_ms"},
	{Name: "topi.dense_f32_ms", Unit: "ms", Better: "lower", Layer: "topi", Moves: "topi.dense_ms, neuron.execute_ms"},
	{Name: "parallel.max_workers", Unit: "count", Better: "higher", Layer: "parallel", Moves: "config: kernel fan-out cap"},

	// Showcase stages.
	{Name: "app.detect_ms", Unit: "ms", Better: "lower", Layer: "app", Moves: "p50_ms on showcase_frames"},
	{Name: "app.spoof_ms", Unit: "ms", Better: "lower", Layer: "app", Moves: "p50_ms on showcase_frames"},
	{Name: "app.emotion_ms", Unit: "ms", Better: "lower", Layer: "app", Moves: "p50_ms on showcase_frames"},
	{Name: "app.faces_per_frame", Unit: "count", Better: "lower", Layer: "app", Moves: "explains app.spoof_ms, app.emotion_ms"},
	{Name: "video.frame_ms", Unit: "ms", Better: "lower", Layer: "video", Moves: "setup_s on showcase_frames"},

	// Every workload.
	{Name: "process.gc_pause_ms", Unit: "ms", Better: "lower", Layer: "process", Moves: "tail_ms everywhere"},
	{Name: "process.gc_cycles", Unit: "count", Better: "lower", Layer: "process", Moves: "tail_ms everywhere"},
	{Name: "process.heap_peak_mb", Unit: "MB", Better: "lower", Layer: "process", Moves: "alloc_kb_per_op"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower", Layer: "bench", Moves: "traced / untraced mean op time; end-to-end numbers come from untraced runs only"},
	{Name: "bench.samples", Unit: "count", Better: "higher", Layer: "bench", Moves: "sample count behind p50_ms / tail_ms in the traced pass's untraced window"},
}
