// Command benchmark is the repository's measuring instrument: six named
// workloads covering the compile path, the serving path and the showcase,
// each reporting the same four end-to-end metrics (tracing off) and, in a
// separate traced pass, per-layer metrics measured from outside by timing
// calls into each package's public functions. README.md in this directory is
// the reference for every name printed here.
//
//	go run ./benchmark -workload serve_light -seed 1            # end-to-end
//	go run ./benchmark -workload serve_light -seed 1 -trace 1   # per-layer + trace file
//	go run ./benchmark -workload all -repeat 3                  # calibration table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"time"
)

// config is one run's knobs. Everything a workload's inputs depend on is
// derived from Seed.
type config struct {
	Seed    uint64
	Seconds float64
	Trace   bool
	// WorkDir holds scratch files (the fleet artifact cache); OutDir receives
	// trace-<workload>.json.
	WorkDir string
	OutDir  string
	// Smoke is the tier-1 test mode: a tenth of the warm-up and one set-up, so
	// a loaded CI box checks outputs in seconds. Numbers from it mean nothing.
	Smoke bool
}

// setupsPerRun is how many times an untraced run sets up. setup_s is their
// median, so another count would be another metric: it is not a flag.
const setupsPerRun = 3

// setups is 1 in the traced pass, which does not report setup_s, and in smoke
// mode, whose numbers mean nothing.
func (c config) setups() int {
	if c.Trace || c.Smoke {
		return 1
	}
	return setupsPerRun
}

// warm scales a fixed warm-up count for the mode.
func (c config) warm(n int) int {
	if c.Smoke {
		return (n + 9) / 10
	}
	return n
}

// workload is one benchmark scenario. setup builds everything up to the first
// measured op (and is what setup_s times), measure runs ops until the window
// closes, layers is the traced pass (plain is its untraced window).
type workload interface {
	setup(cfg config, rec *recorder) error
	measure(window time.Duration, rec *recorder) *window
	layers(rec *recorder, plain *window, out map[string]float64) error
	// simMs names and returns the workload's deterministic sim-ms metric, from
	// the references every measured op is checked against.
	simMs() (metric string, value float64)
	teardown()
}

func newWorkload(name string) workload {
	switch name {
	case "compile_byoc":
		return &compileWorkload{byoc: true}
	case "compile_pure":
		return &compileWorkload{}
	case "serve_heavy":
		return &serveWorkload{heavy: true}
	case "serve_light":
		return &serveWorkload{}
	case "fleet_light":
		return &serveWorkload{fleet: true}
	case "showcase_frames":
		return &showcaseWorkload{}
	}
	return nil
}

// window is what one measured window produced.
type window struct {
	// LatMs holds the client-observed latency of every op that succeeded and
	// verified, in completion order per client.
	LatMs []float64
	// ClassMs splits LatMs by request class ("model:class") where a workload
	// mixes several in fixed proportion.
	ClassMs   map[string][]float64
	Attempted int
	// Failed counts ops that errored, mismatched their reference, or ran
	// past the latency limit; Incorrect is the mismatching subset.
	Failed    int
	Incorrect int
	Elapsed   time.Duration
	Mem       memDelta
	// Errs keeps the first few failure messages for the report.
	Errs []string
}

func (w *window) fail(incorrect bool, format string, args ...any) {
	w.Failed++
	if incorrect {
		w.Incorrect++
	}
	if len(w.Errs) < 5 {
		w.Errs = append(w.Errs, fmt.Sprintf(format, args...))
	}
}

// merge folds another client's window into w.
func (w *window) merge(o *window) {
	w.LatMs = append(w.LatMs, o.LatMs...)
	for k, v := range o.ClassMs {
		if w.ClassMs == nil {
			w.ClassMs = map[string][]float64{}
		}
		w.ClassMs[k] = append(w.ClassMs[k], v...)
	}
	w.Attempted += o.Attempted
	w.Failed += o.Failed
	w.Incorrect += o.Incorrect
	for _, e := range o.Errs {
		if len(w.Errs) < 5 {
			w.Errs = append(w.Errs, e)
		}
	}
}

// report is one run's result.
type report struct {
	Workload  string    `json:"workload"`
	Seed      uint64    `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Traced    bool      `json:"traced"`
	Env       envInfo   `json:"env"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Samples   int       `json:"samples"`
	TailPct   float64   `json:"tail_percentile"`
	Beyond    int       `json:"samples_beyond_tail"`
	SetupsS   []float64 `json:"setup_runs_s"`
	// SimMetric names the sim-ms metric this workload reports. It is a
	// per-layer metric that untraced runs print too: a change that builds or
	// serves faster by generating slower code must show in the same report.
	SimMetric string             `json:"sim_metric"`
	Metrics   map[string]float64 `json:"metrics"`
	Errors    []string           `json:"errors,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
}

// endToEndMetrics derives the end-to-end numbers from a window.
func endToEndMetrics(win *window, setupS float64) map[string]float64 {
	ops := float64(len(win.LatMs))
	attempted := float64(win.Attempted)
	if attempted == 0 {
		attempted = 1
	}
	return map[string]float64{
		"setup_s":         setupS,
		"ops_per_s":       ops / win.Elapsed.Seconds(),
		"p50_ms":          classMedian(win),
		"alloc_kb_per_op": float64(win.Mem.AllocBytes) / 1024 / attempted,
	}
}

// classMedian is p50_ms: the median op latency, or for a workload that mixes
// request classes in fixed proportion the mean of the class medians. The
// pooled median of a balanced mix of a fast and a slow class sits in the gap
// between them, where it follows noise instead of either class.
func classMedian(win *window) float64 {
	if len(win.ClassMs) == 0 {
		return median(win.LatMs)
	}
	var sum float64
	for _, lat := range win.ClassMs {
		sum += median(lat)
	}
	return sum / float64(len(win.ClassMs))
}

// runOnce runs one workload once: a set-up, the untraced window, then the
// remaining set-ups; with cfg.Trace a short untraced window, the same
// window traced, and the layer pass.
func runOnce(name string, cfg config) (*report, error) {
	spec, ok := workloadByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	var rec *recorder
	if cfg.Trace {
		rec = newRecorder()
	}
	rep := &report{Workload: name, Seed: cfg.Seed, Seconds: cfg.Seconds, Traced: cfg.Trace,
		Env: readEnv(), TailPct: spec.TailPct, Metrics: map[string]float64{}}

	setUp := func() (workload, error) {
		// Every set-up starts from a collected heap, so the timings of a run
		// measure the same thing.
		goruntime.GC()
		w := newWorkload(name)
		start := time.Now()
		if err := w.setup(cfg, rec); err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		rep.SetupsS = append(rep.SetupsS, time.Since(start).Seconds())
		return w, nil
	}
	w, err := setUp()
	if err != nil {
		return nil, err
	}

	dur := time.Duration(cfg.Seconds * float64(time.Second))
	if !cfg.Trace {
		// The window runs on the first set-up, as a user's process would; the
		// further set-ups only feed setup_s's median and come after it, so
		// their garbage cannot reach the window.
		win := w.measure(dur, nil)
		setSim(rep, w)
		w.teardown()
		for i := 1; i < cfg.setups(); i++ {
			if w, err = setUp(); err != nil {
				return nil, err
			}
			w.teardown()
		}
		fillOutcome(rep, spec, win)
		for k, v := range endToEndMetrics(win, median(rep.SetupsS)) {
			rep.Metrics[k] = v
		}
		rep.Metrics["tail_ms"] = percentile(win.LatMs, spec.TailPct)
		return rep, nil
	}
	defer w.teardown()

	// Traced pass: a quarter of the time untraced, a quarter traced (their
	// ratio is the tracing overhead), the rest is left to the layer replay,
	// which is count-based.
	heap := startHeapSampler()
	plain := w.measure(dur/4, nil)
	traced := w.measure(dur/4, rec)
	fillOutcome(rep, spec, plain)
	rep.Attempted += traced.Attempted
	rep.Failed += traced.Failed
	rep.Correct = rep.Correct && traced.Incorrect == 0
	rep.Errors = append(rep.Errors, traced.Errs...)
	for _, m := range perLayer {
		rep.Metrics[m.Name] = 0
	}
	if err := w.layers(rec, plain, rep.Metrics); err != nil {
		return nil, fmt.Errorf("%s: layer pass: %w", name, err)
	}
	setSim(rep, w)
	rep.Metrics["tail_ms"] = percentile(plain.LatMs, spec.TailPct)
	rep.Metrics["process.gc_pause_ms"] = plain.Mem.GCPauseMs
	rep.Metrics["process.gc_cycles"] = float64(plain.Mem.GCCycles)
	rep.Metrics["process.heap_peak_mb"] = heap.peakMB()
	rep.Metrics["bench.samples"] = float64(len(plain.LatMs))
	// Mean, not median, op time: a workload whose ops fall in a few cost
	// classes has a median that jumps between them.
	if p := mean(plain.LatMs); p > 0 {
		rep.Metrics["bench.trace_overhead_ratio"] = mean(traced.LatMs) / p
	}
	rep.TraceFile = filepath.Join(cfg.OutDir, "trace-"+name+".json")
	if err := rec.write(rep.TraceFile); err != nil {
		return nil, fmt.Errorf("%s: writing trace: %w", name, err)
	}
	return rep, nil
}

// setSim records the workload's sim-ms metric in the report.
func setSim(rep *report, w workload) {
	name, v := w.simMs()
	rep.SimMetric, rep.Metrics[name] = name, roundSim(v)
}

func fillOutcome(rep *report, spec workloadSpec, win *window) {
	rep.Attempted = win.Attempted
	rep.Failed = win.Failed
	rep.Correct = win.Incorrect == 0 && len(win.LatMs) > 0
	rep.Samples = len(win.LatMs)
	rep.Beyond = samplesBeyond(len(win.LatMs), spec.TailPct)
	rep.Errors = append(rep.Errors, win.Errs...)
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

// specsFor returns the metric list a run prints.
func specsFor(traced bool) []metricSpec {
	if traced {
		return perLayer
	}
	return endToEnd
}

// contractLine renders the driver's result object: exactly the keys correct,
// attempted, failed and metrics, every metric of the pass with its unit.
func contractLine(rep *report) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, m := range specsFor(rep.Traced) {
		metrics[m.Name] = mv{Value: rep.Metrics[m.Name], Unit: m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
}

// printReport writes the human-readable table for one run.
func printReport(rep *report) {
	fmt.Printf("workload %s  seed %d  window %gs  traced %v\n", rep.Workload, rep.Seed, rep.Seconds, rep.Traced)
	fmt.Printf("env: nproc %d  GOMAXPROCS %d  %s  %s\n", rep.Env.NProc, rep.Env.GOMAXPROCS, rep.Env.GoVersion, rep.Env.CPUModel)
	fmt.Printf("ops: attempted %d  failed %d  correct %v  samples %d (tail = p%g, %d beyond",
		rep.Attempted, rep.Failed, rep.Correct, rep.Samples, rep.TailPct, rep.Beyond)
	if rep.Beyond < minTailSamples {
		fmt.Printf("; fewer than %d, highest supported is p%g", minTailSamples, highestSupportedTail(rep.Samples))
	}
	fmt.Printf(")\nset-up runs (s): %v\n", rep.SetupsS)
	for _, e := range rep.Errors {
		fmt.Printf("  failed op: %s\n", e)
	}
	for _, m := range specsFor(rep.Traced) {
		fmt.Printf("  %-32s %14.6g %-7s (%s is better)\n", m.Name, rep.Metrics[m.Name], m.Unit, m.Better)
	}
	if !rep.Traced {
		// Two per-layer rows that need no tracing, from the same window.
		fmt.Printf("  %-32s %14.6g %-7s (per-layer: p%g of the window above)\n", "tail_ms", rep.Metrics["tail_ms"], "ms", rep.TailPct)
		fmt.Printf("  %-32s %14.10g %-7s (per-layer and exact: a change that moves it must say so)\n",
			rep.SimMetric, rep.Metrics[rep.SimMetric], "sim-ms")
	}
	if rep.TraceFile != "" {
		fmt.Printf("trace: %s\n", rep.TraceFile)
	}
}

// repeatTable runs each workload n times afresh and prints, per end-to-end
// metric, min / median / max, the quartile spread and the metric's bound.
func repeatTable(names []string, cfg config, n int) (ok bool, err error) {
	ok = true
	for _, name := range names {
		runs := map[string][]float64{}
		failed := 0
		for i := 0; i < n; i++ {
			rep, err := runOnce(name, cfg)
			if err != nil {
				return false, err
			}
			failed += rep.Failed
			ok = ok && rep.Correct && rep.Failed == 0
			for _, m := range endToEnd {
				runs[m.Name] = append(runs[m.Name], rep.Metrics[m.Name])
			}
		}
		env := readEnv()
		fmt.Printf("%s  seed %d  %d runs of %gs  failed ops %d  (nproc %d, GOMAXPROCS %d, %s, %s)\n",
			name, cfg.Seed, n, cfg.Seconds, failed, env.NProc, env.GOMAXPROCS, env.GoVersion, env.CPUModel)
		fmt.Printf("  %-18s %-5s %12s %12s %12s %8s %8s  %s\n", "metric", "unit", "min", "median", "max", "range", "IQR", "bound")
		for _, m := range endToEnd {
			xs := sorted(runs[m.Name])
			med := median(xs)
			rng := 0.0
			if med != 0 {
				rng = (xs[len(xs)-1] - xs[0]) / med
			}
			verdict := "within"
			if rng > m.Bound {
				verdict = "RANGE EXCEEDS"
			}
			fmt.Printf("  %-18s %-5s %12.6g %12.6g %12.6g %7.2f%% %7.2f%%  %4.0f%% %s\n",
				m.Name, m.Unit, xs[0], med, xs[len(xs)-1], 100*rng, 100*quartileSpread(xs), 100*m.Bound, verdict)
		}
	}
	return ok, nil
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "workload seed: model order, request order and seeds, video content")
		seconds = flag.Float64("seconds", 12, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics instead")
		repeat  = flag.Int("repeat", 0, "run each workload N times afresh and print min/median/max against the bounds")
		workdir = flag.String("workdir", ".bench_build", "scratch directory (created; holds the fleet artifact cache)")
		outdir  = flag.String("out", filepath.Join("benchmark", "out"), "directory for trace-<workload>.json")
	)
	flag.Parse()
	// The runner has 2 cores; pinning it keeps a bigger box comparable.
	goruntime.GOMAXPROCS(2)

	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	cfg := config{Seed: *seed, Seconds: *seconds, WorkDir: *workdir, OutDir: *outdir}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames()
	}
	if *repeat > 0 {
		ok, err := repeatTable(names, cfg, *repeat)
		fatal(err)
		if !ok {
			os.Exit(2)
		}
		return
	}
	cfg.Trace = *trace != 0
	for _, n := range names {
		rep, err := runOnce(n, cfg)
		fatal(err)
		printReport(rep)
		detail, err := json.Marshal(rep)
		fatal(err)
		fmt.Printf("report: %s\n", detail)
		// The contract line goes last: one JSON object with exactly the
		// keys correct, attempted, failed, metrics.
		line, err := contractLine(rep)
		fatal(err)
		fmt.Printf("%s\n", line)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
