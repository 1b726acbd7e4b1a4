package runtime_test

import (
	goruntime "runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/relay"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// runAndFindPackedWeight builds and runs the lite emotion model on the TVM
// side and returns one convolution weight constant whose GEMM panels the run
// packed. Nothing it builds outlives the call except through the result.
func runAndFindPackedWeight(t *testing.T) *tensor.Tensor {
	t.Helper()
	spec, err := models.Get("emotion")
	if err != nil {
		t.Fatal(err)
	}
	m, err := spec.Build(models.SizeLite)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := runtime.Build(m, runtime.BuildOptions{OptLevel: 3})
	if err != nil {
		t.Fatal(err)
	}
	gm := runtime.NewGraphModule(lib)
	gm.SetInput(gm.InputNames()[0], models.RandomInput(m, 7))
	if err := gm.Run(); err != nil {
		t.Fatal(err)
	}
	var w *tensor.Tensor
	relay.PostOrderVisit(lib.Module.Main(), func(e relay.Expr) {
		if c, ok := e.(*relay.Constant); ok && w == nil && len(c.Value.Shape) == 4 && c.Value.Derived() != nil {
			w = c.Value
		}
	})
	if w == nil {
		t.Fatal("the run packed no convolution weight's panels")
	}
	return w
}

// TestPackedWeightDiesWithItsLib: a weight's packed panels hang off the
// weight itself, so nothing outside the Lib and GraphModule that ran the
// model keeps the weight alive. Once both are dropped, the GC collects it.
func TestPackedWeightDiesWithItsLib(t *testing.T) {
	collected := make(chan struct{})
	goruntime.SetFinalizer(runAndFindPackedWeight(t), func(*tensor.Tensor) { close(collected) })
	for i := 0; i < 20; i++ {
		goruntime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a packed weight constant was still reachable after its Lib and GraphModule were dropped")
}

// TestWeightPanelsFollowRefilledInput: a dense weight that is a graph input,
// or an intermediate computed from one — an arena view, or on the BYOC build
// a Neuron working-set operand — is refilled between runs, so no run may
// reuse panels packed from an earlier run's values. Each of two runs, planned
// and interpreted, must equal a fresh module's computation on copies of the
// inputs, bit for bit. With the first run's panels kept, the second run is
// off by 2 to 4.
func TestWeightPanelsFollowRefilledInput(t *testing.T) {
	data := relay.NewVar("data", relay.TType(tensor.Float32, 2, 16))
	weight := relay.NewVar("weight", relay.TType(tensor.Float32, 8, 16))
	for _, b := range []struct {
		name string
		w    relay.Expr
	}{
		{"input", weight},
		{"intermediate", relay.NewCall(relay.OpReLU, []relay.Expr{weight}, nil)},
	} {
		mod := relay.NewModule(relay.NewFunc([]*relay.Var{data, weight},
			relay.NewCall(relay.OpDense, []relay.Expr{data, b.w}, nil)))
		for _, opts := range []runtime.BuildOptions{{OptLevel: 3}, {OptLevel: 3, UseNIR: true}} {
			lib, err := runtime.Build(mod, opts)
			if err != nil {
				t.Fatal(err)
			}
			fresh := func(x, w *tensor.Tensor) *tensor.Tensor {
				gm := runtime.NewGraphModule(lib)
				gm.SetExecutor(runtime.ExecutorInterp)
				gm.SetInput("data", x)
				gm.SetInput("weight", w)
				if err := gm.Run(); err != nil {
					t.Fatal(err)
				}
				return gm.MustOutput(0)
			}
			for _, exec := range []runtime.ExecutorKind{runtime.ExecutorPlanned, runtime.ExecutorInterp} {
				x := tensor.New(tensor.Float32, tensor.Shape{2, 16})
				w := tensor.New(tensor.Float32, tensor.Shape{8, 16})
				gm := runtime.NewGraphModule(lib)
				gm.SetExecutor(exec)
				gm.SetInput("data", x)
				gm.SetInput("weight", w)
				for seed := uint64(1); seed <= 2; seed++ {
					rng := tensor.NewRNG(seed)
					x.FillUniform(rng, -1, 1)
					w.FillUniform(rng, -1, 1)
					if err := gm.Run(); err != nil {
						t.Fatal(err)
					}
					got, want := gm.MustOutput(0), fresh(x.Clone(), w.Clone())
					if !slices.Equal(got.F32(), want.F32()) {
						t.Errorf("weight %s, %d region(s), executor %v, run %d: differs from a fresh computation by %g",
							b.name, len(lib.External), exec, seed, tensor.MaxAbsDiff(got, want))
					}
				}
			}
		}
	}
}

// TestPreparedConvFollowsRebindAndRefill: a plan state prepares each
// convolution's launch — geometry, epilogue, offset table — once, at the
// first Run, from the plan's types alone. On a module whose data, weight
// and bias are all graph inputs, built TVM-only (a prepared topi launch per
// node) and BYOC (the same launch prepared in a region's sub-plan), each of
// three runs on one GraphModule — the first, one with a different data
// tensor of the same shape bound, one with the weight and bias bound before
// refilled in place — must equal a fresh module's run on copies of the
// inputs, bit for bit.
func TestPreparedConvFollowsRebindAndRefill(t *testing.T) {
	data := relay.NewVar("data", relay.TType(tensor.Float32, 1, 6, 7, 3))
	weight := relay.NewVar("weight", relay.TType(tensor.Float32, 8, 3, 3, 3))
	bias := relay.NewVar("bias", relay.TType(tensor.Float32, 8))
	conv := relay.NewCall(relay.OpConv2D, []relay.Expr{data, weight}, relay.Attrs{"padding": []int{1, 1, 1, 1}})
	body := relay.NewCall(relay.OpReLU, []relay.Expr{relay.NewCall(relay.OpBiasAdd, []relay.Expr{conv, bias}, nil)}, nil)
	mod := relay.NewModule(relay.NewFunc([]*relay.Var{data, weight, bias}, body))
	for _, opts := range []runtime.BuildOptions{{OptLevel: 3}, {OptLevel: 3, UseNIR: true}} {
		lib, err := runtime.Build(mod, opts)
		if err != nil {
			t.Fatal(err)
		}
		run := func(gm *runtime.GraphModule, x, w, b *tensor.Tensor) *tensor.Tensor {
			gm.SetInput("data", x)
			gm.SetInput("weight", w)
			gm.SetInput("bias", b)
			if err := gm.Run(); err != nil {
				t.Fatal(err)
			}
			return gm.MustOutput(0)
		}
		gm := runtime.NewGraphModule(lib)
		x := tensor.New(tensor.Float32, tensor.Shape{1, 6, 7, 3})
		w := tensor.New(tensor.Float32, tensor.Shape{8, 3, 3, 3})
		b := tensor.New(tensor.Float32, tensor.Shape{8})
		w.FillUniform(tensor.NewRNG(1), -1, 1)
		b.FillUniform(tensor.NewRNG(2), -1, 1)
		for i, step := range []string{"first", "rebound data", "refilled weight and bias"} {
			switch i {
			case 1:
				x = tensor.New(tensor.Float32, x.Shape)
			case 2:
				w.FillUniform(tensor.NewRNG(3), -1, 1)
				b.FillUniform(tensor.NewRNG(4), -1, 1)
			}
			x.FillUniform(tensor.NewRNG(uint64(10+i)), -1, 1)
			got := run(gm, x, w, b)
			want := run(runtime.NewGraphModule(lib), x.Clone(), w.Clone(), b.Clone())
			if !slices.Equal(got.F32(), want.F32()) {
				t.Errorf("%d region(s), %s: the prepared plan state differs from a fresh one by %g",
					len(lib.External), step, tensor.MaxAbsDiff(got, want))
			}
		}
	}
}
