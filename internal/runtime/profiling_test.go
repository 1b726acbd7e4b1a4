package runtime_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/race"
	"repro/internal/runtime"
	"repro/internal/soc"
)

func buildEmotion(t testing.TB, opts runtime.BuildOptions) (*runtime.Lib, *runtime.GraphModule) {
	t.Helper()
	spec, err := models.Get("emotion")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := spec.Build(models.SizeLite)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := runtime.Build(mod, opts)
	if err != nil {
		t.Fatal(err)
	}
	gm := runtime.NewGraphModule(lib)
	gm.SetInput(gm.InputNames()[0], models.RandomInput(mod, 1))
	return lib, gm
}

// The -profile acceptance property: on a BYOC-partitioned model, the
// recorded events partition the simulated total exactly — for both
// executors — and external regions are attributed to Execution-Planner
// devices (the APU for the emotion model's conv regions).
func TestProfiledEventsSumToTotal(t *testing.T) {
	for _, kind := range []runtime.ExecutorKind{runtime.ExecutorPlanned, runtime.ExecutorInterp} {
		t.Run(kind.String(), func(t *testing.T) {
			_, gm := buildEmotion(t, runtime.BuildOptions{OptLevel: 3, UseNIR: true})
			gm.SetExecutor(kind)
			gm.SetProfiling(true)
			if err := gm.Run(); err != nil {
				t.Fatal(err)
			}
			prof := gm.LastProfile()
			events := prof.Events()
			if len(events) == 0 {
				t.Fatal("profiled run recorded no events")
			}
			var sum soc.Seconds
			var apuOps, dispatches int
			for _, ev := range events {
				sum += ev.Time
				if ev.Kind == soc.EventOp && ev.Device == soc.KindAPU {
					apuOps++
				}
				if ev.Kind == soc.EventDispatch {
					dispatches++
					if !strings.HasPrefix(ev.Name, "nir_") {
						t.Errorf("dispatch event named %q, want a nir_ region", ev.Name)
					}
				}
			}
			// The events and the aggregate accumulate in different orders, so
			// allow float rounding noise — far inside the ±1% criterion.
			if total := prof.Total(); math.Abs(float64(sum-total)) > 1e-9*float64(total) {
				t.Errorf("event sum %v != simulated total %v", sum, total)
			}
			if apuOps == 0 {
				t.Error("no op events attributed to the APU despite BYOC partitioning")
			}
			if dispatches == 0 {
				t.Error("no dispatch events for the partitioned regions")
			}
		})
	}
}

// Both executors must agree on the aggregated per-op table, not just the
// totals: same rows, same counts, same self-times.
func TestProfiledTableMatchesAcrossExecutors(t *testing.T) {
	tables := map[runtime.ExecutorKind]string{}
	for _, kind := range []runtime.ExecutorKind{runtime.ExecutorPlanned, runtime.ExecutorInterp} {
		_, gm := buildEmotion(t, runtime.BuildOptions{OptLevel: 3, UseNIR: true})
		gm.SetExecutor(kind)
		gm.SetProfiling(true)
		if err := gm.Run(); err != nil {
			t.Fatal(err)
		}
		tables[kind] = soc.OpTable(gm.LastProfile().Events())
	}
	if tables[runtime.ExecutorPlanned] != tables[runtime.ExecutorInterp] {
		t.Errorf("per-op tables differ:\n--- planned ---\n%s--- interp ---\n%s",
			tables[runtime.ExecutorPlanned], tables[runtime.ExecutorInterp])
	}
}

// The planned executor records one wall-clock span per node, laid out on
// wavefront lanes; the interpreter has no node plan and reports none.
func TestTraceSpans(t *testing.T) {
	_, gm := buildEmotion(t, runtime.BuildOptions{OptLevel: 3, UseNIR: true})
	gm.SetExecutor(runtime.ExecutorPlanned)
	if gm.TraceSpans() != nil {
		t.Error("TraceSpans non-nil before any run")
	}
	gm.SetProfiling(true)
	if err := gm.Run(); err != nil {
		t.Fatal(err)
	}
	spans := gm.TraceSpans()
	if len(spans) == 0 {
		t.Fatal("profiled planned run produced no executor spans")
	}
	var external int
	for _, s := range spans {
		if s.PID != obs.PIDExec {
			t.Errorf("span %q on pid %d, want executor domain %d", s.Name, s.PID, obs.PIDExec)
		}
		if s.TID < 1 {
			t.Errorf("span %q on lane tid %d, want >= 1", s.Name, s.TID)
		}
		if s.Cat == "external" {
			external++
			var hasDevices bool
			for _, a := range s.Args {
				if a.Key == "devices" {
					hasDevices = true
				}
			}
			if !hasDevices {
				t.Errorf("external span %q missing the devices arg", s.Name)
			}
		}
	}
	if external == 0 {
		t.Error("no external-dispatch spans despite BYOC partitioning")
	}

	// Interpreter path: no node spans.
	_, gi := buildEmotion(t, runtime.BuildOptions{OptLevel: 3, UseNIR: true})
	gi.SetExecutor(runtime.ExecutorInterp)
	gi.SetProfiling(true)
	if err := gi.Run(); err != nil {
		t.Fatal(err)
	}
	if got := gi.TraceSpans(); len(got) != 0 {
		t.Errorf("interpreter reported %d executor spans, want 0", len(got))
	}
}

// TestRegionSpansNest: a profiled BYOC run folds each region's per-stage
// spans under the region's external span, as "fused-op" sub-spans on its
// row, and every sub-span lies inside its parent's span — so a consumer
// that skips "fused-op" counts a region's wall time once.
func TestRegionSpansNest(t *testing.T) {
	_, gm := buildEmotion(t, runtime.BuildOptions{OptLevel: 3, UseNIR: true})
	gm.SetExecutor(runtime.ExecutorPlanned)
	gm.SetProfiling(true)
	for run := 0; run < 3; run++ {
		if err := gm.Run(); err != nil {
			t.Fatal(err)
		}
		var parent obs.Span
		regionStages := 0
		for _, s := range gm.TraceSpans() {
			if s.Cat != "fused-op" {
				parent = s
				continue
			}
			if parent.Name == "" {
				t.Fatalf("sub-span %q precedes every node span", s.Name)
			}
			if s.TID != parent.TID {
				t.Errorf("sub-span %q on row %d, its parent %q on row %d", s.Name, s.TID, parent.Name, parent.TID)
			}
			if s.Start < parent.Start || s.Start+s.Dur > parent.Start+parent.Dur {
				t.Errorf("sub-span %q [%d,+%d] µs outside its parent %q [%d,+%d]",
					s.Name, s.Start, s.Dur, parent.Name, parent.Start, parent.Dur)
			}
			if parent.Cat == "external" {
				regionStages++
			}
		}
		if regionStages == 0 {
			t.Fatal("no per-stage span folded under a region's span")
		}
	}
}

// Disabling profiling must leave the planned hot path allocation-free: a
// module that was profiled and then switched off allocates exactly as much
// per Run as one that never profiled.
func TestProfilingOffAddsZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is nondeterministic under the race detector")
	}
	_, never := buildEmotion(t, runtime.BuildOptions{OptLevel: 3, UseNIR: true})
	never.SetExecutor(runtime.ExecutorPlanned)
	if err := never.Run(); err != nil { // warm up plan state + arena
		t.Fatal(err)
	}
	baseline := testing.AllocsPerRun(10, func() {
		if err := never.Run(); err != nil {
			t.Fatal(err)
		}
	})

	_, toggled := buildEmotion(t, runtime.BuildOptions{OptLevel: 3, UseNIR: true})
	toggled.SetExecutor(runtime.ExecutorPlanned)
	toggled.SetProfiling(true)
	if err := toggled.Run(); err != nil {
		t.Fatal(err)
	}
	toggled.SetProfiling(false)
	off := testing.AllocsPerRun(10, func() {
		if err := toggled.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if off > baseline {
		t.Errorf("SetProfiling(false) run allocates %v/op, never-profiled baseline %v/op", off, baseline)
	}
}

// sameProfile demands bit-identical simulated numbers: Total and every
// device's time, plus what assertProfilesEqual compares.
func sameProfile(t *testing.T, what string, want, got *soc.Profile) {
	t.Helper()
	if math.Float64bits(float64(want.Total())) != math.Float64bits(float64(got.Total())) {
		t.Errorf("%s: Total %v, fresh module's first run %v", what, got.Total(), want.Total())
	}
	for _, k := range soc.AllDeviceKinds() {
		if math.Float64bits(float64(want.DeviceTime[k])) != math.Float64bits(float64(got.DeviceTime[k])) {
			t.Errorf("%s: DeviceTime[%s] %v, fresh module's first run %v", what, k, got.DeviceTime[k], want.DeviceTime[k])
		}
	}
	assertProfilesEqual(t, what, want, got)
}

// The planned executor charges a plan once per module: every unprofiled Run
// returns the profile the first one charged, and a profiled Run charges a
// fresh one with events. On every zoo model, TVM-only and BYOC, the first
// run, the second, and one after profiling was switched on and off again
// each equal a fresh module's first-run profile bit for bit; the profiled
// run between them does too, and its events sum to its total.
func TestPlannedChargeIsCachedOnZoo(t *testing.T) {
	specs := append(models.Showcase(), models.Figure6()...)
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			mod, err := spec.Build(models.SizeLite)
			if err != nil {
				t.Fatal(err)
			}
			in := models.RandomInput(mod, 3)
			for _, opts := range []runtime.BuildOptions{{OptLevel: 3}, {OptLevel: 3, UseNIR: true}} {
				lib, err := runtime.Build(mod, opts)
				if err != nil {
					t.Fatal(err)
				}
				run := func(gm *runtime.GraphModule) *soc.Profile {
					t.Helper()
					if err := gm.Run(); err != nil {
						t.Fatal(err)
					}
					return gm.LastProfile()
				}
				newModule := func() *runtime.GraphModule {
					gm := runtime.NewGraphModule(lib)
					gm.SetExecutor(runtime.ExecutorPlanned)
					gm.SetInput(gm.InputNames()[0], in)
					return gm
				}
				want := run(newModule())
				gm := newModule()
				first, second := run(gm), run(gm)
				gm.SetProfiling(true)
				profiled := run(gm)
				gm.SetProfiling(false)
				after := run(gm)
				what := fmt.Sprintf("nir=%v", opts.UseNIR)
				sameProfile(t, what+" first run", want, first)
				sameProfile(t, what+" second run", want, second)
				sameProfile(t, what+" profiled run", want, profiled)
				sameProfile(t, what+" run after profiling", want, after)
				if second != first || after != first {
					t.Errorf("%s: unprofiled runs returned distinct profiles: the charge is not cached", what)
				}
				if profiled == first || !profiled.EventsEnabled() || len(profiled.Events()) == 0 {
					t.Fatalf("%s: the profiled run after cached runs carries no events of its own", what)
				}
				var sum soc.Seconds
				for _, ev := range profiled.Events() {
					sum += ev.Time
				}
				if d := math.Abs(float64(sum - profiled.Total())); d > 1e-12 {
					t.Errorf("%s: profiled events sum to %v, total %v", what, sum, profiled.Total())
				}
			}
		})
	}
}

// TestWarmPlannedRunAllocs pins what a warm, unprofiled planned Run of each
// showcase model allocates on the BYOC build the application runs: nothing.
// It was 39, 22 and 66 while every Run charged a fresh profile, and 3, 0
// and 2 while the mean kernel allocated its sums, counts and index and the
// quantized concatenation its list of requantized fields.
func TestWarmPlannedRunAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is nondeterministic under the race detector")
	}
	for _, spec := range models.Showcase() {
		mod, err := spec.Build(models.SizeLite)
		if err != nil {
			t.Fatal(err)
		}
		lib, err := runtime.Build(mod, runtime.BuildOptions{OptLevel: 3, UseNIR: true})
		if err != nil {
			t.Fatal(err)
		}
		gm := runtime.NewGraphModule(lib)
		gm.SetExecutor(runtime.ExecutorPlanned)
		gm.SetInput(gm.InputNames()[0], models.RandomInput(mod, 1))
		allocs := testing.AllocsPerRun(20, func() {
			if err := gm.Run(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per warm Run, want 0", spec.Name, allocs)
		}
	}
}

// Compile-time instrumentation: a Build with a Tracer records one span per
// optimization pass plus the partitioning and per-region codegen spans, all
// on the "compile" track.
func TestBuildCompileSpans(t *testing.T) {
	tracer := obs.NewTracer(0)
	spec, err := models.Get("emotion")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := spec.Build(models.SizeLite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runtime.Build(mod, runtime.BuildOptions{OptLevel: 3, UseNIR: true, Tracer: tracer}); err != nil {
		t.Fatal(err)
	}
	spans, names := tracer.Snapshot()
	if len(spans) == 0 {
		t.Fatal("traced build recorded no spans")
	}
	var compileTrack bool
	for _, n := range names {
		if n == "compile" {
			compileTrack = true
		}
	}
	if !compileTrack {
		t.Errorf("no compile track in %v", names)
	}
	byCat := map[string][]string{}
	for _, s := range spans {
		byCat[s.Cat] = append(byCat[s.Cat], s.Name)
	}
	if len(byCat["pass"]) < 3 {
		t.Errorf("want >= 3 pass spans (InferType, FuseOps, ...), got %v", byCat["pass"])
	}
	var hasFuse, hasPartition, hasConvert, hasCompile bool
	for _, n := range byCat["pass"] {
		if n == "FuseOps" {
			hasFuse = true
		}
		if n == "partition_for_nir" {
			hasPartition = true
		}
	}
	for _, n := range byCat["codegen"] {
		if strings.HasPrefix(n, "ConvertFunction:") {
			hasConvert = true
		}
		if strings.HasPrefix(n, "neuron.Compile:") {
			hasCompile = true
		}
	}
	if !hasFuse || !hasPartition || !hasConvert || !hasCompile {
		t.Errorf("missing expected compile spans (FuseOps %v, partition %v, convert %v, neuron %v): %v",
			hasFuse, hasPartition, hasConvert, hasCompile, byCat)
	}
	// Pass spans carry op-count args.
	for _, s := range spans {
		if s.Cat != "pass" || s.Name == "partition_for_nir" {
			continue
		}
		keys := map[string]bool{}
		for _, a := range s.Args {
			keys[a.Key] = true
		}
		if !keys["ops_before"] || !keys["ops_after"] {
			t.Errorf("pass span %q missing ops_before/ops_after args: %v", s.Name, s.Args)
		}
	}
}

// TestEstimateIsThePlannedCharge: Lib.Estimate, which executes nothing,
// equals the profile a planned Run returns, field for field and bit for
// bit, on every lite zoo model built TVM-only and BYOC.
func TestEstimateIsThePlannedCharge(t *testing.T) {
	for _, name := range models.Names() {
		spec, err := models.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			mod, err := spec.Build(models.SizeLite)
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range []runtime.BuildOptions{{OptLevel: 3}, {OptLevel: 3, UseNIR: true}} {
				lib, err := runtime.Build(mod, opts)
				if err != nil {
					t.Fatal(err)
				}
				est, err := lib.Estimate()
				if err != nil {
					t.Fatal(err)
				}
				gm := runtime.NewGraphModule(lib)
				gm.SetExecutor(runtime.ExecutorPlanned)
				gm.SetInput(gm.InputNames()[0], models.RandomInput(mod, 1))
				if err := gm.Run(); err != nil {
					t.Fatal(err)
				}
				sameProfile(t, fmt.Sprintf("nir=%v: Estimate", opts.UseNIR), gm.LastProfile(), est)
			}
		})
	}
}
