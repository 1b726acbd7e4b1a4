package runtime_test

import (
	goruntime "runtime"
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
