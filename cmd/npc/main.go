// Command npc is the compiler driver: it imports a serialized model from
// any supported framework, optimizes it, partitions it for NeuroPilot, and
// writes a deployable library artifact — the offline half of the paper's
// §4.5 cross-compile-and-deploy flow.
//
// Usage:
//
//	npc -model model.tflite -o model.nplib
//	npc -model emotion.json -weights emotion.bin -framework keras -o emotion.nplib
//	npc -model yolov3.cfg -weights yolov3.weights -framework darknet -targets cpu,apu -o yolo.nplib
//	npc -model model.tflite -dump            # print the partitioned relay module
//	npc -model model.tflite -verify -o m.nplib   # IR-verify after every pass
//	npc -model model.tflite -run                 # one synthetic inference
//	npc -zoo emotion -run -profile           # per-op profile table for a zoo model
//	npc -zoo emotion -run -trace=out.json    # Chrome trace (load in Perfetto)
//	npc -lint                                # cross-check the operator registries
//	npc -zoo emotion -analyze                # dataflow analyses over one zoo model
//	npc -zoo all -analyze                    # analyze every zoo model
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/neuron"
	"repro/internal/nir"
	"repro/internal/obs"
	"repro/internal/relay"
	"repro/internal/runtime"
	"repro/internal/soc"
	"repro/internal/topi"
	"repro/internal/tune"
	"repro/internal/verify"
)

func main() {
	var (
		modelPath   = flag.String("model", "", "serialized model file (required)")
		weightsPath = flag.String("weights", "", "separate weight blob (keras/pytorch/darknet)")
		framework   = flag.String("framework", "", "source framework: keras|pytorch|tflite|darknet|onnx (default: auto-detect)")
		outPath     = flag.String("o", "", "output artifact path")
		targets     = flag.String("targets", "cpu,apu", "NeuroPilot devices for partitioned regions")
		optLevel    = flag.Int("opt", 3, "optimization level (0-3)")
		noNIR       = flag.Bool("no-nir", false, "disable the NeuroPilot BYOC partitioning (TVM-only build)")
		dump        = flag.Bool("dump", false, "print the optimized/partitioned module instead of writing an artifact")
		dot         = flag.Bool("dot", false, "print the partitioned module as Graphviz DOT")
		stats       = flag.Bool("stats", false, "print per-op statistics of the partitioned module")
		verifyFlag  = flag.Bool("verify", false, "run the IR verifier after every optimization pass")
		lint        = flag.Bool("lint", false, "cross-check the relay-op / NIR-handler / TOPI-kernel / Neuron registries and exit")
		analyzeFlag = flag.Bool("analyze", false, "run the dataflow analyses (plan safety, quant ranges, device legality, dead code) over the compiled module")
		runFlag     = flag.Bool("run", false, "execute one inference on a synthetic input and print the simulated profile")
		zooName     = flag.String("zoo", "", "build a model-zoo model by name instead of importing -model (\"list\" prints names)")
		sizeFlag    = flag.String("size", "lite", "zoo model size with -zoo: lite|full")
		profileFlag = flag.Bool("profile", false, "with -run: print the per-op profile table")
		traceOut    = flag.String("trace", "", "write a Chrome trace JSON file (compile spans; with -run also executor and simulated-timeline spans)")
		tuneWith    = flag.String("tune-with", "", "tuning-record file (nptune output) to steer kernel dispatch")
	)
	flag.Parse()
	if *tuneWith != "" {
		_, n, err := tune.LoadAndInstall(*tuneWith)
		fatal(err)
		fmt.Printf("npc: loaded %d tuning record(s) from %s\n", n, *tuneWith)
	}
	if *lint {
		runLint()
		return
	}
	if *zooName == "list" {
		for _, n := range models.Names() {
			fmt.Println(n)
		}
		return
	}
	if *zooName == "all" {
		if !*analyzeFlag {
			fmt.Fprintln(os.Stderr, "npc: -zoo all is only meaningful with -analyze")
			os.Exit(2)
		}
		devices, err := parseTargets(*targets)
		fatal(err)
		analyzeZoo(*sizeFlag, runtime.BuildOptions{
			OptLevel:   *optLevel,
			UseNIR:     !*noNIR,
			NIRDevices: devices,
		})
		return
	}
	if *modelPath == "" && *zooName == "" {
		fmt.Fprintln(os.Stderr, "npc: -model or -zoo is required")
		flag.Usage()
		os.Exit(2)
	}

	var mod *relay.Module
	var err error
	if *zooName != "" {
		spec, gerr := models.Get(*zooName)
		fatal(gerr)
		size := models.SizeLite
		if *sizeFlag == "full" {
			size = models.SizeFull
		}
		mod, err = spec.Build(size)
		fatal(err)
		fmt.Printf("npc: built zoo model %s (%s, %s): %d ops\n",
			spec.Name, spec.Framework, *sizeFlag, relay.CountOps(mod.Main()))
	} else {
		model, rerr := os.ReadFile(*modelPath)
		fatal(rerr)
		var weights []byte
		if *weightsPath != "" {
			weights, err = os.ReadFile(*weightsPath)
			fatal(err)
		}
		fw := core.Framework(*framework)
		if fw == "" {
			fw, err = core.DetectFramework(model)
			fatal(err)
		}
		mod, err = core.Import(fw, model, weights)
		fatal(err)
		fmt.Printf("npc: imported %s model: %d ops\n", fw, relay.CountOps(mod.Main()))
	}

	devices, err := parseTargets(*targets)
	fatal(err)
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(0)
	}
	opts := runtime.BuildOptions{
		OptLevel:   *optLevel,
		UseNIR:     !*noNIR,
		NIRDevices: devices,
		Verify:     *verifyFlag,
		Tracer:     tracer,
	}
	lib, err := core.Compile(mod, opts)
	fatal(err)
	ext := lib.Module.ExternalFuncs("nir")
	fmt.Printf("npc: compiled: %d NeuroPilot regions, targets %v\n", len(ext), devices)
	if *verifyFlag {
		fmt.Println("npc: IR verification clean after every pass")
	}

	if *analyzeFlag {
		label := *zooName
		if label == "" {
			label = *modelPath
		}
		if !runAnalyze(label, lib) {
			os.Exit(1)
		}
		if *outPath == "" {
			return
		}
	}
	if *dump {
		fmt.Print(relay.PrintModule(lib.Module))
		return
	}
	if *dot {
		fmt.Print(relay.ToDOT(lib.Module))
		return
	}
	if *stats {
		printStats(lib)
		return
	}
	if *runFlag {
		gm, err := runOnce(lib, mod, *profileFlag || *traceOut != "")
		fatal(err)
		if *profileFlag {
			fmt.Print(soc.OpTable(gm.LastProfile().Events()))
			printTunedDispatch()
		}
		if *traceOut != "" {
			fatal(writeTrace(*traceOut, tracer, gm))
		}
		return
	}
	if *traceOut != "" {
		fatal(writeTrace(*traceOut, tracer, nil))
		if *outPath == "" {
			return
		}
	}
	if *outPath == "" {
		fmt.Fprintln(os.Stderr, "npc: -o is required unless -dump/-dot is given")
		os.Exit(2)
	}
	f, err := os.Create(*outPath)
	fatal(err)
	defer f.Close()
	fatal(core.Export(lib, f))
	info, err := f.Stat()
	fatal(err)
	fmt.Printf("npc: wrote %s (%d bytes)\n", *outPath, info.Size())
}

// runOnce executes one inference on a synthetic input and prints the plan
// summary plus the simulated cost profile.
func runOnce(lib *runtime.Lib, mod *relay.Module, profile bool) (*runtime.GraphModule, error) {
	gm := runtime.NewGraphModule(lib)
	gm.SetProfiling(profile)
	names := gm.InputNames()
	if len(names) != 1 {
		return nil, fmt.Errorf("npc: -run requires a single-input model, have %d inputs", len(names))
	}
	gm.SetInput(names[0], models.RandomInput(mod, 1))
	if err := gm.Run(); err != nil {
		return nil, err
	}
	if plan, err := lib.Plan(); err == nil {
		fmt.Printf("npc: %s\n", plan)
	} else {
		fmt.Printf("npc: module not plannable (%v), interpreter used\n", err)
	}
	fmt.Printf("npc: %d output(s), simulated inference %s\n",
		gm.NumOutputs(), gm.LastProfile().Total())
	fmt.Printf("npc: profile: %s\n", gm.LastProfile())
	return gm, nil
}

// printTunedDispatch appends the tuned-dispatch audit to the -profile
// output: which kernel tasks resolved to a tuned configuration during the
// run, and how often. Silent when no tuning table is installed.
func printTunedDispatch() {
	tbl := topi.Tuning()
	if tbl == nil {
		return
	}
	hits, misses := tbl.Stats()
	fmt.Printf("\ntuned dispatch (%d config(s) loaded, %d hit(s), %d miss(es)):\n",
		tbl.Len(), hits, misses)
	for _, d := range tbl.Snapshot() {
		fmt.Printf("  %-72s %-28s %d hit(s)\n", d.Task, d.Config, d.Hits)
	}
}

// writeTrace merges the compile-time tracer spans with (when gm ran profiled)
// the executor's wall-clock node spans and the simulated-clock event layout,
// and writes one Chrome trace JSON file — each clock domain renders as its
// own Perfetto process.
func writeTrace(path string, tracer *obs.Tracer, gm *runtime.GraphModule) error {
	spans, names := tracer.Snapshot()
	if gm != nil {
		exec := gm.TraceSpans()
		spans = append(spans, exec...)
		for _, sp := range exec {
			names[obs.Thread{PID: obs.PIDExec, TID: sp.TID}] = fmt.Sprintf("lane %d", sp.TID-1)
		}
		if prof := gm.LastProfile(); prof != nil && prof.EventsEnabled() {
			spans = append(spans, soc.EventSpans(prof.Events())...)
			for th, n := range soc.SimThreadNames() {
				names[th] = n
			}
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := obs.WriteChromeTrace(f, spans, names); err != nil {
		return err
	}
	fmt.Printf("npc: wrote trace %s (%d spans)\n", path, len(spans))
	return nil
}

// printStats summarizes the compiled module: per-op counts, parameter
// bytes, MAC volume, and the per-region Execution Planner reports.
func printStats(lib *runtime.Lib) {
	counts := map[string]int{}
	var paramBytes int64
	// Partitioned region functions appear both inline in main and as module
	// definitions (same objects); dedupe across the walk.
	seen := map[relay.Expr]bool{}
	lib.Module.Functions(func(name string, fn *relay.Function) {
		relay.PostOrderVisit(fn, func(e relay.Expr) {
			if seen[e] {
				return
			}
			seen[e] = true
			switch n := e.(type) {
			case *relay.Call:
				if n.Op != nil {
					counts[n.Op.Name]++
				}
			case *relay.Constant:
				paramBytes += int64(n.Value.Bytes())
			}
		})
	})
	w := soc.FunctionWork(lib.Module.Main())
	fmt.Printf("npc: %d distinct ops, %.2f MB parameters, %.1f MMACs per inference"+"\n",
		len(counts), float64(paramBytes)/(1<<20), float64(w.MACs)/1e6)
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-24s %d"+"\n", n, counts[n])
	}
	for _, name := range lib.Module.ExternalFuncs("nir") {
		if cm, ok := lib.External[name]; ok {
			fmt.Printf("\nregion %s plan:\n%s", name, cm.PlanReport())
		}
	}
}

// analyzeLib runs the full internal/analysis suite over a compiled library:
// the independent plan-safety checker over the global ExecPlan, quantization
// range analysis, per-region device-transfer legality, and dead-code
// detection. All four emit verify.Diagnostic, so the output reads exactly
// like -lint and -verify findings.
func analyzeLib(lib *runtime.Lib) *verify.Result {
	res := &verify.Result{}
	if plan, err := lib.Plan(); err == nil {
		res.Merge(analysis.PlanSafety(plan.View()))
	} else {
		res.Warnf("plan-unavailable", "", "module not plannable, plan safety skipped: %v", err)
	}
	res.Merge(analysis.QuantRanges(lib.Module))
	regions := make([]string, 0, len(lib.External))
	for name := range lib.External {
		regions = append(regions, name)
	}
	sort.Strings(regions)
	for _, name := range regions {
		res.Merge(analysis.DeviceLegality(name, lib.External[name]))
	}
	res.Merge(analysis.DeadCode(lib.Module))
	return res
}

// runAnalyze prints every diagnostic and reports whether the library is free
// of error-severity findings.
func runAnalyze(label string, lib *runtime.Lib) bool {
	res := analyzeLib(lib)
	for _, d := range res.Diags {
		fmt.Println("npc:", d)
	}
	if !res.OK() {
		fmt.Fprintf(os.Stderr, "npc: analyze %s: %d error(s)\n", label, len(res.Errors()))
		return false
	}
	fmt.Printf("npc: analyze %s: clean (%d warning(s))\n", label, len(res.Diags))
	return true
}

// analyzeZoo compiles and analyzes every model-zoo entry, exiting non-zero
// if any model produces an error-severity finding.
func analyzeZoo(sizeFlag string, opts runtime.BuildOptions) {
	size := models.SizeLite
	if sizeFlag == "full" {
		size = models.SizeFull
	}
	ok := true
	for _, n := range models.Names() {
		spec, err := models.Get(n)
		fatal(err)
		m, err := spec.Build(size)
		fatal(err)
		lib, err := core.Compile(m, opts)
		fatal(err)
		if !runAnalyze(n, lib) {
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// runLint cross-checks the operator registries: every relay op with an NIR
// handler must be registered, every TOPI kernel must implement a registered
// op, and every Neuron opcode must resolve to real kernels and at least one
// backend device. Exits non-zero when any registry is inconsistent.
func runLint() {
	res := verify.Registries(nir.VerifySnapshot())
	for _, d := range res.Diags {
		fmt.Println("npc:", d)
	}
	if !res.OK() {
		fmt.Fprintf(os.Stderr, "npc: registry lint failed with %d errors\n", len(res.Errors()))
		os.Exit(1)
	}
	snap := nir.VerifySnapshot()
	fmt.Printf("npc: registries consistent: %d relay ops, %d NIR handlers, %d TOPI kernels, %d Neuron opcodes\n",
		len(snap.RelayOps), len(snap.NIRHandlers), len(snap.TOPIKernels), len(neuron.OpCodes()))
}

func parseTargets(s string) ([]soc.DeviceKind, error) {
	var out []soc.DeviceKind
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "cpu":
			out = append(out, soc.KindCPU)
		case "apu":
			out = append(out, soc.KindAPU)
		case "":
		default:
			return nil, fmt.Errorf("npc: unknown target %q (want cpu, apu)", part)
		}
	}
	return out, nil
}

// fatal exits non-zero on error. A *verify.Error is unwrapped into its
// individual diagnostics so -verify failures print one structured finding
// per line, in the same shape -lint and -analyze use.
func fatal(err error) {
	if err == nil {
		return
	}
	var verr *verify.Error
	if errors.As(err, &verr) {
		for _, d := range verr.Diags {
			fmt.Fprintln(os.Stderr, "npc:", d)
		}
		fmt.Fprintf(os.Stderr, "npc: verification failed with %d diagnostic(s)\n", len(verr.Diags))
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "npc:", err)
	os.Exit(1)
}
