package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"repro/internal/models"
	"repro/internal/neuron"
	"repro/internal/nir"
	"repro/internal/passes"
	"repro/internal/relay"
	"repro/internal/runtime"
	"repro/internal/soc"
	"repro/internal/tensor"
	"repro/internal/verify"
)

// Fixed warm-up counts: part of set-up, so faster compiles shorten setup_s.
const (
	warmSweepsBYOC = 3
	warmSweepsPure = 20
	// stagedSweeps is how many sweeps the traced pass replays stage by stage.
	stagedSweeps = 5
)

var nirDevices = []soc.DeviceKind{soc.KindCPU, soc.KindAPU}

// simTotal sums a profile in fixed device order. Profile.Total ranges over a
// map, so its last bit depends on iteration order; the benchmark's pinned
// sim-ms numbers must not.
func simTotal(p *soc.Profile) float64 {
	t := p.DMATime + p.DispatchTime
	for _, k := range soc.AllDeviceKinds() {
		t += p.DeviceTime[k]
	}
	return t.Ms()
}

// sameSim compares two simulated times up to float summation order.
func sameSim(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// roundSim drops the digits summation order can disturb, so a deterministic
// metric prints identically on every run.
func roundSim(x float64) float64 {
	if x == 0 {
		return 0
	}
	scale := math.Pow(10, 10-math.Ceil(math.Log10(math.Abs(x))))
	return math.Round(x*scale) / scale
}

// cell is the checked outcome of one (model, build kind) compile.
type cell struct {
	SimMs   float64
	Regions int
	// Skipped marks a NeuroPilot-only cell with no statistics (the model has
	// an op outside the Neuron op set): counted, not failed.
	Skipped bool
}

type zooModel struct {
	name string
	mod  *relay.Module
}

// compileWorkload is compile_byoc (byoc) and compile_pure (!byoc): one op is
// one sweep over all zoo models in seeded order, each model compiled, planned
// and estimated.
type compileWorkload struct {
	byoc     bool
	models   []zooModel
	order    []int
	ref      [][]cell // [model][kind] from the first sweep
	importMs float64
	sweeps   int
}

// kinds is how many cells one model contributes to a sweep.
func (w *compileWorkload) kinds() int {
	if w.byoc {
		return 1
	}
	return 2 // TVM-only, NeuroPilot-only
}

func (w *compileWorkload) buildOptions() runtime.BuildOptions {
	if w.byoc {
		return runtime.BuildOptions{OptLevel: 3, UseNIR: true, NIRDevices: nirDevices}
	}
	return runtime.BuildOptions{OptLevel: 3}
}

func importZoo(size models.Size) ([]zooModel, error) {
	var out []zooModel
	for _, name := range models.Names() {
		spec, err := models.Get(name)
		if err != nil {
			return nil, err
		}
		mod, err := spec.Build(size)
		if err != nil {
			return nil, fmt.Errorf("importing %s: %w", name, err)
		}
		out = append(out, zooModel{name, mod})
	}
	return out, nil
}

func (w *compileWorkload) setup(cfg config, rec *recorder) error {
	var err error
	w.importMs = rec.timed("models.import", "setup", rowSetup, 0, func() {
		w.models, err = importZoo(models.SizeFull)
	})
	if err != nil {
		return err
	}
	w.order = newRNG(cfg.Seed).perm(len(w.models))
	// The compiler's output must run: the showcase trio (lite) built with
	// this workload's options gives interpreter-equal outputs.
	if err := checkTrioExecutes(w.buildOptions()); err != nil {
		return err
	}
	warm := cfg.warm(warmSweepsPure)
	if w.byoc {
		warm = cfg.warm(warmSweepsBYOC)
	}
	for i := 0; i < warm; i++ {
		start := time.Now()
		cells, err := w.sweep(nil, 0)
		if err != nil {
			return err
		}
		rec.emit("warm-up sweep", "setup", rowSetup, i, start, time.Since(start))
		if w.ref == nil {
			w.ref = cells
		} else if err := w.check(cells); err != nil {
			return err
		}
	}
	return nil
}

func (w *compileWorkload) teardown() {}

// simMs is the geometric mean of the generated code's simulated run time over
// every cell the sweeps compile (skipped NP-only cells have none).
func (w *compileWorkload) simMs() (string, float64) {
	var sims []float64
	for _, row := range w.ref {
		for _, c := range row {
			if !c.Skipped {
				sims = append(sims, c.SimMs)
			}
		}
	}
	return "sim_ms_geomean", geomean(sims)
}

// compileCell is the measured unit: what npc, an artifact-cache miss and an
// nptune rebuild pay for one model.
func (w *compileWorkload) compileCell(mod *relay.Module, kind int) (cell, error) {
	if !w.byoc && kind == 1 {
		cm, err := runtime.BuildNeuroPilotOnly(mod, nil, nirDevices)
		if err != nil {
			if runtime.IsNoStatistics(err) {
				return cell{Skipped: true}, nil
			}
			return cell{}, err
		}
		prof := soc.NewProfile()
		cm.Estimate(prof)
		return cell{SimMs: simTotal(prof)}, nil
	}
	lib, err := runtime.Build(mod, w.buildOptions())
	if err != nil {
		return cell{}, err
	}
	if _, err := lib.Plan(); err != nil {
		return cell{}, err
	}
	prof, err := lib.Estimate()
	if err != nil {
		return cell{}, err
	}
	return cell{SimMs: simTotal(prof), Regions: len(lib.External)}, nil
}

func (w *compileWorkload) sweep(rec *recorder, op int) ([][]cell, error) {
	out := make([][]cell, len(w.models))
	for _, mi := range w.order {
		m := w.models[mi]
		out[mi] = make([]cell, w.kinds())
		for k := range out[mi] {
			start := time.Now()
			c, err := w.compileCell(m.mod, k)
			if err != nil {
				return nil, fmt.Errorf("%s (cell %d): %w", m.name, k, err)
			}
			rec.emit("compile:"+m.name, "sweep", rowClient, op, start, time.Since(start))
			out[mi][k] = c
		}
	}
	return out, nil
}

// check compares a sweep with the first one: same sim-ms, regions and skips.
func (w *compileWorkload) check(cells [][]cell) error {
	for mi, row := range cells {
		for k, c := range row {
			r := w.ref[mi][k]
			if c.Regions != r.Regions || c.Skipped != r.Skipped || !sameSim(c.SimMs, r.SimMs) {
				return fmt.Errorf("%s cell %d: got %+v, first sweep had %+v", w.models[mi].name, k, c, r)
			}
		}
	}
	return nil
}

func (w *compileWorkload) measure(d time.Duration, rec *recorder) *window {
	win := &window{}
	mem := markMem()
	begin := time.Now()
	for time.Since(begin) < d {
		w.sweeps++
		win.Attempted++
		start := time.Now()
		cells, err := w.sweep(rec, w.sweeps)
		lat := time.Since(start)
		rec.emit("sweep", "", rowClient, w.sweeps, start, lat)
		if err == nil {
			err = w.check(cells)
		}
		if err != nil {
			win.fail(true, "sweep %d: %v", w.sweeps, err)
			continue
		}
		win.LatMs = append(win.LatMs, ms(lat))
	}
	win.Elapsed = time.Since(begin)
	win.Mem = mem.since()
	return win
}

// checkTrioExecutes builds the lite showcase trio with opts and checks the
// default executor against the reference interpreter, bit for bit.
func checkTrioExecutes(opts runtime.BuildOptions) error {
	for _, spec := range models.Showcase() {
		mod, err := spec.Build(models.SizeLite)
		if err != nil {
			return err
		}
		lib, err := runtime.Build(mod, opts)
		if err != nil {
			return err
		}
		if err := sameAsInterpreter(lib, lib, mod, 1); err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
	}
	return nil
}

// sameAsInterpreter runs got on the default executor and want on the
// reference interpreter with the same seeded input and compares every output
// bitwise.
func sameAsInterpreter(got, want *runtime.Lib, mod *relay.Module, seed uint64) error {
	in := models.RandomInput(mod, seed)
	ref, _, err := runModule(want, runtime.ExecutorInterp, in)
	if err != nil {
		return err
	}
	out, _, err := runModule(got, runtime.ExecutorAuto, in)
	if err != nil {
		return err
	}
	if len(out) != len(ref) {
		return fmt.Errorf("%d outputs, interpreter has %d", len(out), len(ref))
	}
	for i := range out {
		if !bitwiseEqual(out[i], ref[i]) {
			return fmt.Errorf("output %d differs from the interpreter's", i)
		}
	}
	return nil
}

// runModule runs one inference and returns detached outputs and the sim-ms.
func runModule(lib *runtime.Lib, kind runtime.ExecutorKind, in *tensor.Tensor) ([]*tensor.Tensor, float64, error) {
	gm := runtime.NewGraphModule(lib)
	gm.SetExecutor(kind)
	gm.SetInput(gm.InputNames()[0], in)
	if err := gm.Run(); err != nil {
		return nil, 0, err
	}
	outs := make([]*tensor.Tensor, gm.NumOutputs())
	for i := range outs {
		o, err := gm.OutputCopy(i)
		if err != nil {
			return nil, 0, err
		}
		outs[i] = o
	}
	return outs, simTotal(gm.LastProfile()), nil
}

func bitwiseEqual(a, b *tensor.Tensor) bool {
	if a.DType != b.DType || !a.Shape.Equal(b.Shape) {
		return false
	}
	for i, n := 0, a.Elems(); i < n; i++ {
		if a.DType == tensor.Float32 {
			if math.Float32bits(a.F32()[i]) != math.Float32bits(b.F32()[i]) {
				return false
			}
		} else if a.GetRaw(i) != b.GetRaw(i) {
			return false
		}
	}
	return true
}

// ------------------------------------------------------------ traced pass

// stager times the stages of one staged sweep: every call is one span in the
// trace and adds its milliseconds to the stage's per-layer metric.
type stager struct {
	ms  map[string]float64
	rec *recorder
	op  int
}

func (s *stager) time(metric, parent string, fn func() error) error {
	var err error
	s.ms[metric] += s.rec.timed(metric, parent, rowLayers, s.op, func() { err = fn() })
	return err
}

// build replays runtime.Build through the same public calls in the same
// order, timing each.
func (s *stager) build(m *relay.Module, opts runtime.BuildOptions) (*runtime.Lib, error) {
	opts.SoC = soc.NewDimensity800()
	opts.Partition = passes.DefaultPartitionOptions()
	mod := m.Clone()
	ctx := passes.NewContext(opts.OptLevel)
	pass := func(metric string, p passes.Pass) func() error {
		return func() (err error) {
			return s.time(metric, "runtime.Build", func() error {
				mod, err = passes.Sequential(mod, ctx, p)
				return err
			})
		}
	}
	steps := []func() error{
		pass("passes.simplify_ms", passes.SimplifyInference()),
		pass("passes.fold_ms", passes.FoldConstant()),
		pass("passes.cse_ms", passes.EliminateCommonSubexpr()),
		func() (err error) {
			if !opts.UseNIR {
				return nil
			}
			return s.time("nir.partition_ms", "runtime.Build", func() error {
				mod, err = nir.PartitionForNIR(mod, opts.Partition, opts.NIRDevices...)
				return err
			})
		},
		pass("passes.fuse_ms", passes.FuseOps()),
		func() error {
			return s.time("verify.module_ms", "runtime.Build", func() error {
				return verify.ModuleErr(mod, nir.VerifyOptions())
			})
		},
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	lib := &runtime.Lib{Module: mod, External: map[string]*neuron.CompiledModel{}, SoC: opts.SoC, Opts: opts}
	if !opts.UseNIR {
		return lib, nil
	}
	for _, name := range mod.ExternalFuncs(nir.CompilerName) {
		fn, _ := mod.Get(name)
		cm, err := s.codegen("runtime.Build", name, fn, opts.SoC, opts.NIRDevices)
		if err != nil {
			return nil, err
		}
		if err := s.time("verify.plan_ms", "runtime.Build", func() error { return verify.PlanErr(cm) }); err != nil {
			return nil, err
		}
		lib.External[name] = cm
	}
	return lib, nil
}

// codegen is convert → compile for one region or (NP-only) the whole model.
func (s *stager) codegen(parent, name string, fn *relay.Function, sc *soc.SoC, devs []soc.DeviceKind) (cm *neuron.CompiledModel, err error) {
	var model *neuron.Model
	if err = s.time("nir.convert_ms", parent, func() error {
		model, err = nir.ConvertFunction(name, fn)
		return err
	}); err != nil {
		return nil, err
	}
	err = s.time("neuron.compile_ms", parent, func() error {
		cm, err = neuron.Compile(model, sc, devs)
		return err
	})
	return cm, err
}

// neuroPilotOnly replays runtime.BuildNeuroPilotOnly. The second result is
// false for a no-statistics model.
func (s *stager) neuroPilotOnly(m *relay.Module) (*neuron.CompiledModel, bool, error) {
	const parent = "BuildNeuroPilotOnly"
	mod := m.Clone()
	ctx := passes.NewContext(3)
	for _, p := range []struct {
		metric string
		pass   passes.Pass
	}{{"passes.simplify_ms", passes.SimplifyInference()}, {"passes.fold_ms", passes.FoldConstant()}} {
		if err := s.time(p.metric, parent, func() (err error) {
			mod, err = passes.Sequential(mod, ctx, p.pass)
			return err
		}); err != nil {
			return nil, false, err
		}
	}
	main := mod.Main()
	supported := true
	s.time("nir.convert_ms", parent, func() error { // the op-coverage walk is nir's too
		relay.PostOrderVisit(main.Body, func(e relay.Expr) {
			if c, ok := e.(*relay.Call); ok && c.Op != nil && !nir.Supported(c) {
				supported = false
			}
		})
		return nil
	})
	if !supported {
		return nil, false, nil
	}
	cm, err := s.codegen(parent, "model", main, soc.NewDimensity800(), nirDevices)
	if runtime.IsNoStatistics(err) {
		return nil, false, nil
	}
	return cm, err == nil, err
}

// inOrder runs a then b, or b then a.
func inOrder(aFirst bool, a, b func()) {
	if aFirst {
		a()
		b()
	} else {
		b()
		a()
	}
}

// buildStages are the rows that must sum to runtime.build_ms.
var buildStages = []string{
	"passes.simplify_ms", "passes.fold_ms", "passes.cse_ms", "passes.fuse_ms",
	"nir.partition_ms", "nir.convert_ms", "neuron.compile_ms",
	"verify.module_ms", "verify.plan_ms",
}

func (w *compileWorkload) layers(rec *recorder, _ *window, out map[string]float64) error {
	perSweep := map[string][]float64{}
	var sizes map[string]float64 // exact, so the last sweep's stand for all
	for sweep := 0; sweep < stagedSweeps; sweep++ {
		s := &stager{ms: map[string]float64{}, rec: rec, op: sweep}
		sizes = map[string]float64{}
		for _, mi := range w.order {
			// Whichever of a real/staged pair runs first on a model pays its
			// cold caches, so the order alternates and the bias cancels over
			// a sweep.
			realFirst := (sweep+mi)%2 == 0
			if err := w.layerModel(s, mi, realFirst, sizes); err != nil {
				return fmt.Errorf("%s: %w", w.models[mi].name, err)
			}
		}
		var sum float64
		for _, k := range buildStages {
			sum += s.ms[k]
		}
		s.ms["bench.build_unattributed_ratio"] = math.Abs(s.ms["runtime.build_ms"]-sum) / s.ms["runtime.build_ms"]
		for k, v := range s.ms {
			perSweep[k] = append(perSweep[k], v)
		}
	}
	for k, v := range perSweep {
		out[k] = median(v)
	}
	for k, v := range sizes {
		out[k] = v
	}
	out["models.import_ms"] = w.importMs
	return w.checkArtifactsRun(rec)
}

// layerModel runs one model's share of a staged sweep: the real build and
// its staged replica (checked equal), the stages after Build, and on
// compile_pure the same for the NeuroPilot-only cell.
func (w *compileWorkload) layerModel(s *stager, mi int, realFirst bool, sizes map[string]float64) error {
	m, opts := w.models[mi], w.buildOptions()
	sizes["relay.calls"] += float64(relay.CountOps(m.mod.Main().Body))

	var real, staged *runtime.Lib
	var err, serr error
	inOrder(realFirst, func() {
		err = s.time("runtime.build_ms", "", func() (err error) {
			real, err = runtime.Build(m.mod, opts)
			return err
		})
	}, func() { staged, serr = s.build(m.mod, opts) })
	if err != nil {
		return err
	}
	if serr != nil {
		return fmt.Errorf("staged build: %w", serr)
	}
	sim, art, err := s.backHalf(m, staged, opts, sizes)
	if err != nil {
		return err
	}
	if err := sameLib(real, staged, sim, art); err != nil {
		return fmt.Errorf("staged build differs from runtime.Build: %w", err)
	}
	if !sameSim(sim, w.ref[mi][0].SimMs) {
		return fmt.Errorf("staged sim-ms %v, measured sweeps had %v", sim, w.ref[mi][0].SimMs)
	}
	if w.byoc {
		return nil
	}

	var realCM, cm *neuron.CompiledModel
	var ok bool
	inOrder(realFirst, func() {
		err = s.time("runtime.build_ms", "", func() (err error) {
			realCM, err = runtime.BuildNeuroPilotOnly(m.mod, nil, nirDevices)
			return err
		})
	}, func() { cm, ok, serr = s.neuroPilotOnly(m.mod) })
	if err != nil && !runtime.IsNoStatistics(err) {
		return err
	}
	if serr != nil {
		return fmt.Errorf("staged NP-only build: %w", serr)
	}
	if ok != (err == nil) {
		return fmt.Errorf("staged NP-only build ok=%v, BuildNeuroPilotOnly err=%v", ok, err)
	}
	if !ok {
		sizes["compile.skipped_cells"]++
		return nil
	}
	sizes["neuron.operations"] += float64(len(cm.Model.Operations))
	p1, p2 := soc.NewProfile(), soc.NewProfile()
	s.time("runtime.estimate_ms", "", func() error { cm.Estimate(p1); return nil })
	realCM.Estimate(p2)
	if !sameSim(simTotal(p1), simTotal(p2)) || !sameSim(simTotal(p1), w.ref[mi][1].SimMs) {
		return fmt.Errorf("staged NP-only sim-ms %v, BuildNeuroPilotOnly %v, sweeps %v",
			simTotal(p1), simTotal(p2), w.ref[mi][1].SimMs)
	}
	return nil
}

// backHalf times what follows Build for one library — plan, estimate, export,
// load, key — and adds the library's exact sizes to sizes. It returns the
// library's sim-ms and exported bytes.
func (s *stager) backHalf(m zooModel, lib *runtime.Lib, opts runtime.BuildOptions, sizes map[string]float64) (float64, []byte, error) {
	var (
		plan *runtime.ExecPlan
		prof *soc.Profile
		art  bytes.Buffer
	)
	steps := []struct {
		metric string
		run    func() error
	}{
		{"runtime.plan_ms", func() (err error) { plan, err = runtime.BuildPlan(lib); return }},
		{"runtime.estimate_ms", func() (err error) { prof, err = lib.Estimate(); return }},
		{"runtime.export_ms", func() error { return lib.ExportLibrary(&art) }},
		{"runtime.load_ms", func() error {
			_, err := runtime.LoadLibrary(bytes.NewReader(art.Bytes()), nil)
			return err
		}},
		{"runtime.key_ms", func() error {
			_, err := runtime.ArtifactKey(m.mod, opts, nil)
			return err
		}},
	}
	for _, st := range steps {
		if err := s.time(st.metric, "", st.run); err != nil {
			return 0, nil, err
		}
	}
	const mb = 1 << 20
	sizes["nir.regions"] += float64(len(lib.External))
	for _, name := range lib.Module.ExternalFuncs(nir.CompilerName) {
		fn, _ := lib.Module.Get(name)
		sizes["nir.region_calls"] += float64(relay.CountOps(fn.Body))
		sizes["neuron.operations"] += float64(len(lib.External[name].Model.Operations))
	}
	sizes["runtime.plan_nodes"] += float64(plan.NumNodes())
	sizes["runtime.arena_mb"] += float64(plan.ArenaBytes) / mb
	sizes["runtime.naive_mb"] += float64(plan.NaiveBytes) / mb
	sizes["runtime.artifact_mb"] += float64(art.Len()) / mb
	return simTotal(prof), art.Bytes(), nil
}

// sameLib asserts the staged replica equals runtime.Build's result: regions,
// sim-ms and exported bytes.
func sameLib(real, staged *runtime.Lib, stagedSim float64, stagedArt []byte) error {
	if len(real.External) != len(staged.External) {
		return fmt.Errorf("regions %d vs %d", len(staged.External), len(real.External))
	}
	prof, err := real.Estimate()
	if err != nil {
		return err
	}
	if !sameSim(simTotal(prof), stagedSim) {
		return fmt.Errorf("sim-ms %v vs %v", stagedSim, simTotal(prof))
	}
	var art bytes.Buffer
	if err := real.ExportLibrary(&art); err != nil {
		return err
	}
	if !bytes.Equal(art.Bytes(), stagedArt) {
		return fmt.Errorf("exported artifact differs (%d vs %d bytes)", len(stagedArt), art.Len())
	}
	return nil
}

// checkArtifactsRun exports and reloads the (full-size) showcase trio built
// with this workload's options and checks the loaded library against the
// interpreter on the original, bit for bit.
func (w *compileWorkload) checkArtifactsRun(rec *recorder) error {
	trio := map[string]bool{}
	for _, s := range models.Showcase() {
		trio[s.Name] = true
	}
	for _, m := range w.models {
		if !trio[m.name] {
			continue
		}
		var err error
		rec.timed("artifact round trip:"+m.name, "", rowLayers, 0, func() {
			var lib, loaded *runtime.Lib
			if lib, err = runtime.Build(m.mod, w.buildOptions()); err != nil {
				return
			}
			var art bytes.Buffer
			if err = lib.ExportLibrary(&art); err != nil {
				return
			}
			if loaded, err = runtime.LoadLibrary(&art, nil); err != nil {
				return
			}
			err = sameAsInterpreter(loaded, lib, m.mod, 1)
		})
		if err != nil {
			return fmt.Errorf("artifact round trip of %s: %w", m.name, err)
		}
	}
	return nil
}
