package runtime_test

import (
	"testing"

	"repro/internal/models"
	"repro/internal/neuron"
	"repro/internal/parallel"
	"repro/internal/relay"
	"repro/internal/runtime"
	"repro/internal/soc"
	"repro/internal/tensor"
)

// assertProfilesEqual demands bit-identical simulated profiles: the planned
// executor charges the same costs in the same order as the interpreter, so
// even float accumulation must agree exactly.
func assertProfilesEqual(t *testing.T, what string, interp, planned *soc.Profile) {
	t.Helper()
	if len(interp.DeviceTime) != len(planned.DeviceTime) {
		t.Errorf("%s: device-time keys differ: interp %v, planned %v", what, interp.DeviceTime, planned.DeviceTime)
	}
	for k, v := range interp.DeviceTime {
		if planned.DeviceTime[k] != v {
			t.Errorf("%s: DeviceTime[%s]: interp %v, planned %v", what, k, v, planned.DeviceTime[k])
		}
	}
	if interp.DMATime != planned.DMATime {
		t.Errorf("%s: DMATime: interp %v, planned %v", what, interp.DMATime, planned.DMATime)
	}
	if interp.DispatchTime != planned.DispatchTime {
		t.Errorf("%s: DispatchTime: interp %v, planned %v", what, interp.DispatchTime, planned.DispatchTime)
	}
	if len(interp.Launches) != len(planned.Launches) {
		t.Errorf("%s: launch keys differ: interp %v, planned %v", what, interp.Launches, planned.Launches)
	}
	for k, v := range interp.Launches {
		if planned.Launches[k] != v {
			t.Errorf("%s: Launches[%s]: interp %d, planned %d", what, k, v, planned.Launches[k])
		}
	}
	if interp.Subgraphs != planned.Subgraphs {
		t.Errorf("%s: Subgraphs: interp %d, planned %d", what, interp.Subgraphs, planned.Subgraphs)
	}
}

// Every zoo model must produce bitwise-identical outputs and profiles on the
// planned executor and the reference interpreter — both on the pure-TVM path
// and with NeuroPilot partitioning. This is the oracle test that licenses
// making the planned executor the default.
func TestPlannedMatchesInterpreterOnZoo(t *testing.T) {
	specs := append(models.Showcase(), models.Figure6()...)
	configs := []struct {
		name string
		opts runtime.BuildOptions
	}{
		{"tvm", runtime.BuildOptions{OptLevel: 3}},
		{"byoc", runtime.BuildOptions{OptLevel: 3, UseNIR: true}},
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			mod, err := spec.Build(models.SizeLite)
			if err != nil {
				t.Fatalf("build model: %v", err)
			}
			in := models.RandomInput(mod, 77)
			for _, cfg := range configs {
				lib, err := runtime.Build(mod, cfg.opts)
				if err != nil {
					t.Fatalf("%s: relay build: %v", cfg.name, err)
				}
				if _, err := lib.Plan(); err != nil {
					t.Fatalf("%s: module did not lower to a plan: %v", cfg.name, err)
				}

				ref := runtime.NewGraphModule(lib)
				ref.SetExecutor(runtime.ExecutorInterp)
				ref.SetInput(ref.InputNames()[0], in)
				if err := ref.Run(); err != nil {
					t.Fatalf("%s: interpreter run: %v", cfg.name, err)
				}

				gm := runtime.NewGraphModule(lib)
				gm.SetExecutor(runtime.ExecutorPlanned)
				gm.SetInput(gm.InputNames()[0], in)
				if err := gm.Run(); err != nil {
					t.Fatalf("%s: planned run: %v", cfg.name, err)
				}

				if ref.NumOutputs() != gm.NumOutputs() {
					t.Fatalf("%s: interp has %d outputs, planned %d", cfg.name, ref.NumOutputs(), gm.NumOutputs())
				}
				for i := 0; i < ref.NumOutputs(); i++ {
					want, got := ref.MustOutput(i), gm.MustOutput(i)
					if !tensor.AllClose(got, want, 0, 0) {
						t.Errorf("%s: output %d differs (max %g) — planned executor must be bitwise-exact",
							cfg.name, i, tensor.MaxAbsDiff(got, want))
					}
				}
				assertProfilesEqual(t, cfg.name, ref.LastProfile(), gm.LastProfile())
			}
		})
	}
}

// TestZooBYOCMatchesTVMOnly: every lite zoo model's outputs are the same
// bits built BYOC and TVM-only. The two builds share no executor code for
// a region's numerics — a region runs the stages neuron.Stages lowers each
// Neuron operation to, TVM-only the relay calls fusion groups — so this pin
// sees a lowering fault that the planned-vs-interpreter differential, whose
// both sides read neuron.Stages, cannot.
func TestZooBYOCMatchesTVMOnly(t *testing.T) {
	for _, name := range models.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, err := models.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			mod, err := spec.Build(models.SizeLite)
			if err != nil {
				t.Fatal(err)
			}
			in := models.RandomInput(mod, 77)
			var outs [2][]*tensor.Tensor
			for i, opts := range []runtime.BuildOptions{{OptLevel: 3}, {OptLevel: 3, UseNIR: true}} {
				lib, err := runtime.Build(mod, opts)
				if err != nil {
					t.Fatal(err)
				}
				gm := runtime.NewGraphModule(lib)
				gm.SetExecutor(runtime.ExecutorPlanned)
				gm.SetInput(gm.InputNames()[0], in)
				if err := gm.Run(); err != nil {
					t.Fatal(err)
				}
				for k := 0; k < gm.NumOutputs(); k++ {
					outs[i] = append(outs[i], gm.MustOutput(k))
				}
			}
			if len(outs[0]) != len(outs[1]) {
				t.Fatalf("TVM-only has %d outputs, BYOC %d", len(outs[0]), len(outs[1]))
			}
			for k := range outs[0] {
				if !tensor.AllClose(outs[1][k], outs[0][k], 0, 0) {
					t.Errorf("output %d: BYOC differs from TVM-only by %g", k, tensor.MaxAbsDiff(outs[1][k], outs[0][k]))
				}
			}
		})
	}
}

// A chain of same-shape elementwise ops needs exactly three buffers: two that
// ping-pong plus the dedicated graph output. This pins the memory planner's
// reuse behaviour on a hand-built graph.
func TestMemoryPlannerPingPongReuse(t *testing.T) {
	data := relay.NewVar("data", relay.TType(tensor.Float32, 1, 8, 8, 4))
	x := relay.Expr(data)
	for i := 0; i < 4; i++ {
		x = relay.NewCall(relay.OpReLU, []relay.Expr{x}, nil)
	}
	mod := relay.NewModule(relay.NewFunc([]*relay.Var{data}, x))
	// OptLevel 0 keeps the four relus as four separate plan nodes.
	lib, err := runtime.Build(mod, runtime.BuildOptions{OptLevel: 0})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := lib.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumNodes() != 4 || plan.NumLevels() != 4 {
		t.Fatalf("plan shape: %s, want 4 nodes in 4 levels", plan)
	}
	if plan.NumStorages() != 3 {
		t.Errorf("planner allocated %d storages for a 4-op chain, want 3 (ping-pong + output): %s",
			plan.NumStorages(), plan)
	}
	const buf = 1 * 8 * 8 * 4 * 4 // one float32 activation
	if plan.NaiveBytes != 4*buf {
		t.Errorf("NaiveBytes = %d, want %d", plan.NaiveBytes, 4*buf)
	}
	if plan.ArenaBytes != 3*buf {
		t.Errorf("ArenaBytes = %d, want %d", plan.ArenaBytes, 3*buf)
	}
}

// The acceptance criterion on the memory planner: on MobileNet-SSD the
// arena must be strictly smaller than one-buffer-per-node allocation.
func TestMobileNetSSDArenaSmallerThanNaive(t *testing.T) {
	mod, err := models.BuildMobileNetSSDQuant(models.SizeLite)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := runtime.Build(mod, runtime.BuildOptions{OptLevel: 3})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := lib.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.ArenaBytes >= plan.NaiveBytes {
		t.Fatalf("no reuse on MobileNet-SSD: arena %d B >= naive %d B", plan.ArenaBytes, plan.NaiveBytes)
	}
	t.Logf("MobileNet-SSD lite intermediates: naive %d B, arena %d B (%.2fx reduction, %d storages for %d nodes)",
		plan.NaiveBytes, plan.ArenaBytes, float64(plan.NaiveBytes)/float64(plan.ArenaBytes),
		plan.NumStorages(), plan.NumNodes())
}

// diamondModule fans one input out to several independent same-level branches
// and reduces them pairwise — the shape that exercises wavefront parallelism.
func diamondModule() *relay.Module {
	data := relay.NewVar("data", relay.TType(tensor.Float32, 1, 16, 16, 4))
	branches := []relay.Expr{
		relay.NewCall(relay.OpReLU, []relay.Expr{data}, nil),
		relay.NewCall(relay.OpSigmoid, []relay.Expr{data}, nil),
		relay.NewCall(relay.OpTanh, []relay.Expr{data}, nil),
		relay.NewCall(relay.OpLeakyReLU, []relay.Expr{data}, relay.Attrs{"alpha": 0.1}),
	}
	l := relay.NewCall(relay.OpAdd, []relay.Expr{branches[0], branches[1]}, nil)
	r := relay.NewCall(relay.OpMaximum, []relay.Expr{branches[2], branches[3]}, nil)
	root := relay.NewCall(relay.OpMultiply, []relay.Expr{l, r}, nil)
	return relay.NewModule(relay.NewFunc([]*relay.Var{data}, root))
}

// The wavefront executor must produce the interpreter's exact result no
// matter how many workers race over a level (run with -race to make this a
// memory-safety test as well).
func TestWavefrontDiamondMatchesInterp(t *testing.T) {
	old := parallel.SetMaxWorkers(4)
	defer parallel.SetMaxWorkers(old)

	mod := diamondModule()
	lib, err := runtime.Build(mod, runtime.BuildOptions{OptLevel: 0})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := lib.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumLevels() >= plan.NumNodes() {
		t.Fatalf("diamond plan has no parallel level: %s", plan)
	}
	in := tensor.New(tensor.Float32, tensor.Shape{1, 16, 16, 4})
	in.FillUniform(tensor.NewRNG(5), -1, 1)

	ref := runtime.NewGraphModule(lib)
	ref.SetExecutor(runtime.ExecutorInterp)
	ref.SetInput("data", in)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	want := ref.MustOutput(0)

	gm := runtime.NewGraphModule(lib)
	gm.SetExecutor(runtime.ExecutorPlanned)
	gm.SetInput("data", in)
	for iter := 0; iter < 10; iter++ {
		if err := gm.Run(); err != nil {
			t.Fatal(err)
		}
		if !tensor.AllClose(gm.MustOutput(0), want, 0, 0) {
			t.Fatalf("iteration %d: wavefront result diverged from interpreter", iter)
		}
		assertProfilesEqual(t, "diamond", ref.LastProfile(), gm.LastProfile())
	}
}

// A fused kernel's sub-plan recycles arena storage by wavefront level, so it
// has to run level by level too. In this body the long branch's third node
// (level 2) reuses the first node's storage, which add(%0, …) on the short
// branch (level 1, but a later node id) still reads: executed in node-id
// order the planned result was silently wrong.
func TestPrimitiveSubPlanRunsInLevelOrder(t *testing.T) {
	ty := relay.TType(tensor.Float32, 1, 16)
	p := relay.NewVar("p", ty)
	t1 := relay.NewCall(relay.OpTanh, []relay.Expr{p}, nil)
	t2 := relay.NewCall(relay.OpTanh, []relay.Expr{t1}, nil)
	t3 := relay.NewCall(relay.OpTanh, []relay.Expr{t2}, nil)
	short := relay.NewCall(relay.OpAdd, []relay.Expr{t1, relay.NewCall(relay.OpSigmoid, []relay.Expr{p}, nil)}, nil)
	prim := relay.NewFunc([]*relay.Var{p}, relay.NewCall(relay.OpAdd, []relay.Expr{t3, short}, nil))
	prim.FnAttrs[relay.FnAttrPrimitive] = "1"
	x := relay.NewVar("x", ty)
	lib, err := runtime.Build(relay.NewModule(relay.NewFunc([]*relay.Var{x},
		relay.NewFnCall(prim, []relay.Expr{x}))), runtime.BuildOptions{OptLevel: 0})
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(tensor.Float32, tensor.Shape{1, 16})
	in.FillUniform(tensor.NewRNG(1), -1, 1)
	var outs []*tensor.Tensor
	for _, k := range []runtime.ExecutorKind{runtime.ExecutorInterp, runtime.ExecutorPlanned} {
		gm := runtime.NewGraphModule(lib)
		gm.SetExecutor(k)
		gm.SetInput("x", in)
		if err := gm.Run(); err != nil {
			t.Fatalf("executor %s: %v", k, err)
		}
		outs = append(outs, gm.MustOutput(0))
	}
	if !tensor.AllClose(outs[1], outs[0], 0, 0) {
		t.Fatal("planned fused kernel diverged from the interpreter")
	}
}

// A module the planner cannot lower (a plain, non-primitive function call)
// must fall back to the interpreter under ExecutorAuto, fail loudly under
// ExecutorPlanned, and still run under ExecutorInterp.
func TestExecutorFallbackOnUnplannableModule(t *testing.T) {
	data := relay.NewVar("data", relay.TType(tensor.Float32, 1, 4, 4, 2))
	p := relay.NewVar("p", relay.TType(tensor.Float32, 1, 4, 4, 2))
	inner := relay.NewFunc([]*relay.Var{p}, relay.NewCall(relay.OpReLU, []relay.Expr{p}, nil))
	mod := relay.NewModule(relay.NewFunc([]*relay.Var{data},
		relay.NewFnCall(inner, []relay.Expr{data})))
	if err := relay.InferModule(mod); err != nil {
		t.Fatal(err)
	}
	// relay.Build refuses plain anonymous calls outright, so assemble the
	// library by hand: only the interpreter can execute this module.
	lib := &runtime.Lib{Module: mod, External: map[string]*neuron.CompiledModel{}, SoC: soc.NewDimensity800()}
	if _, err := lib.Plan(); err == nil {
		t.Fatal("expected plan failure for plain function call")
	}
	in := tensor.New(tensor.Float32, tensor.Shape{1, 4, 4, 2})
	in.FillUniform(tensor.NewRNG(9), -1, 1)

	for _, k := range []runtime.ExecutorKind{runtime.ExecutorAuto, runtime.ExecutorInterp} {
		gm := runtime.NewGraphModule(lib)
		gm.SetExecutor(k)
		gm.SetInput("data", in)
		if err := gm.Run(); err != nil {
			t.Fatalf("executor %s: %v", k, err)
		}
		if gm.MustOutput(0).Shape.Elems() != in.Shape.Elems() {
			t.Fatalf("executor %s: bad output shape", k)
		}
	}
	gm := runtime.NewGraphModule(lib)
	gm.SetExecutor(runtime.ExecutorPlanned)
	gm.SetInput("data", in)
	if err := gm.Run(); err == nil {
		t.Fatal("ExecutorPlanned must refuse an unplannable module")
	}
}
