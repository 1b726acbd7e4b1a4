package tune

import (
	"testing"

	"repro/internal/relay"
	"repro/internal/tensor"
	"repro/internal/topi"
)

// buildTuneModule constructs conv -> relu -> conv(same shape) -> conv(five
// filters) -> dense: three conv launches of two distinct tasks, and a dense
// launch, which has no knob and so is no task.
func buildTuneModule(t *testing.T) *relay.Module {
	t.Helper()
	data := relay.NewVar("data", relay.TType(tensor.Float32, 1, 8, 8, 3))
	w1 := relay.Const(tensor.New(tensor.Float32, tensor.Shape{3, 3, 3, 3}))
	conv1 := relay.NewCall(relay.OpConv2D, []relay.Expr{data, w1},
		relay.Attrs{"strides": []int{1, 1}, "padding": []int{1, 1}})
	act := relay.NewCall(relay.OpReLU, []relay.Expr{conv1}, nil)
	w2 := relay.Const(tensor.New(tensor.Float32, tensor.Shape{3, 3, 3, 3}))
	conv2 := relay.NewCall(relay.OpConv2D, []relay.Expr{act, w2},
		relay.Attrs{"strides": []int{1, 1}, "padding": []int{1, 1}})
	w3 := relay.Const(tensor.New(tensor.Float32, tensor.Shape{5, 3, 3, 3}))
	conv3 := relay.NewCall(relay.OpConv2D, []relay.Expr{conv2, w3},
		relay.Attrs{"strides": []int{1, 1}, "padding": []int{1, 1}})
	flat := relay.NewCall(relay.OpReshape, []relay.Expr{conv3}, relay.Attrs{"newshape": []int{1, 320}})
	wd := relay.Const(tensor.New(tensor.Float32, tensor.Shape{10, 320}))
	dense := relay.NewCall(relay.OpDense, []relay.Expr{flat, wd}, nil)
	fn := relay.NewFunc([]*relay.Var{data}, dense)
	if _, err := relay.InferTypes(fn); err != nil {
		t.Fatal(err)
	}
	return relay.NewModule(fn)
}

func TestTasksExtractionDedupesAndSorts(t *testing.T) {
	m := buildTuneModule(t)
	tasks := Tasks(m)
	if len(tasks) != 2 {
		t.Fatalf("extracted %d tasks, want 2 (deduped convs, no dense): %v", len(tasks), tasks)
	}
	for i := 1; i < len(tasks); i++ {
		if tasks[i-1].String() >= tasks[i].String() {
			t.Fatalf("tasks not sorted: %s before %s", tasks[i-1], tasks[i])
		}
	}
	for _, task := range tasks {
		if task.Op != "nn.conv2d" || task.H != 8 || task.W != 8 || task.C != 3 || task.KH != 3 || task.PadT != 1 {
			t.Errorf("conv task = %s", task)
		}
	}
	if tasks[0].OC != 3 || tasks[1].OC != 5 {
		t.Errorf("tasks = %v, want 3 and 5 filters", tasks)
	}

	// Every extracted task must survive the canonical string round-trip —
	// that string is the record-file identity.
	for _, task := range tasks {
		back, err := topi.ParseTaskKey(task.String())
		if err != nil {
			t.Fatalf("round-trip %s: %v", task, err)
		}
		if back != task {
			t.Fatalf("round-trip %s -> %s", task, back)
		}
	}
}

func TestTasksSkipsUntypedCalls(t *testing.T) {
	// No InferTypes run: vars and constants carry construction-time types,
	// but a call result does not — a conv fed by an un-inferred call must be
	// skipped, not panicked on or guessed at.
	data := relay.NewVar("data", relay.TType(tensor.Float32, 1, 8, 8, 3))
	w1 := relay.Const(tensor.New(tensor.Float32, tensor.Shape{3, 3, 3, 3}))
	conv1 := relay.NewCall(relay.OpConv2D, []relay.Expr{data, w1},
		relay.Attrs{"strides": []int{1, 1}, "padding": []int{1, 1}})
	w2 := relay.Const(tensor.New(tensor.Float32, tensor.Shape{5, 3, 3, 3}))
	conv2 := relay.NewCall(relay.OpConv2D, []relay.Expr{conv1, w2},
		relay.Attrs{"strides": []int{1, 1}, "padding": []int{1, 1}})
	m := relay.NewModule(relay.NewFunc([]*relay.Var{data}, conv2))
	got := Tasks(m)
	if len(got) != 1 || got[0].OC != 3 {
		t.Fatalf("tasks from partially typed module = %v, want just the var-fed conv", got)
	}
}
