package topi

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/relay"
	"repro/internal/tensor"
)

func TestKernelMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	EnableKernelMetrics(reg)
	defer EnableKernelMetrics(nil)

	a := tensor.New(tensor.Float32, tensor.Shape{4})
	b := tensor.New(tensor.Float32, tensor.Shape{4})
	out := &relay.TensorType{Shape: tensor.Shape{4}, DType: tensor.Float32}
	if _, err := Run("add", []*tensor.Tensor{a, b}, relay.Attrs{}, out); err != nil {
		t.Fatal(err)
	}
	dst := tensor.New(tensor.Float32, tensor.Shape{4})
	l := prepared(t, "add", []*tensor.Tensor{a, b}, relay.Attrs{}, out)
	if err := l.Run([]*tensor.Tensor{a, b}, dst); err != nil {
		t.Fatal(err)
	}

	c := reg.Counter("np_kernel_launches_total", "", obs.L("kernel", "add"))
	if got := c.Value(); got != 2 {
		t.Fatalf("np_kernel_launches_total{kernel=add} = %v, want 2", got)
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `np_kernel_seconds_total{kernel="add"}`) {
		t.Fatalf("kernel time series missing from exposition:\n%s", sb.String())
	}
}
