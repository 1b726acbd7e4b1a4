package topi

import (
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/race"
	"repro/internal/relay"
	"repro/internal/tensor"
)

// stagedReference runs the unfused kernel chain the fused kernels replace:
// anchor (int32 accumulator) → nn.bias_add → qnn.requantize → activation.
// The fused kernels must match it bit-for-bit — this is the §3.3 guarantee
// the graph executor relies on when it collapses the chain into one launch.
func stagedReference(t *testing.T, anchor string, args []*tensor.Tensor, attrs relay.Attrs,
	accShape tensor.Shape, outQ tensor.QuantParams, activation string) *tensor.Tensor {
	t.Helper()
	accScale := attrs.Float("requant_input_scale", 1)
	acc := run(t, anchor, args[:2], attrs)
	acc.Quant = &tensor.QuantParams{Scale: accScale, ZeroPoint: int32(attrs.Int("requant_input_zero_point", 0))}
	if len(args) == 3 {
		acc = run(t, "nn.bias_add", []*tensor.Tensor{acc, args[2]}, nil)
		acc.Quant = &tensor.QuantParams{Scale: accScale, ZeroPoint: int32(attrs.Int("requant_input_zero_point", 0))}
	}
	req := run(t, "qnn.requantize", []*tensor.Tensor{acc}, relay.Attrs{
		"input_scale":       attrs.Float("requant_input_scale", 1),
		"input_zero_point":  attrs.Int("requant_input_zero_point", 0),
		"output_scale":      attrs.Float("requant_output_scale", 1),
		"output_zero_point": attrs.Int("requant_output_zero_point", 0),
		"out_dtype":         "uint8",
	})
	req.Quant = &tensor.QuantParams{Scale: outQ.Scale, ZeroPoint: outQ.ZeroPoint}
	switch activation {
	case "":
		return req
	case "relu":
		return run(t, "nn.relu", []*tensor.Tensor{req}, nil)
	case "relu6":
		return run(t, "clip", []*tensor.Tensor{req}, relay.Attrs{"a_min": 0.0, "a_max": 6.0})
	default:
		t.Fatalf("unknown activation %q", activation)
		return nil
	}
}

func fusedQuantAttrs(activation string) (relay.Attrs, tensor.QuantParams) {
	outQ := tensor.QuantParams{Scale: 0.15, ZeroPoint: 7}
	return relay.Attrs{
		"input_scale":               0.02,
		"kernel_scale":              0.4,
		"input_zero_point":          128,
		"kernel_zero_point":         121,
		"requant_input_scale":       0.008,
		"requant_input_zero_point":  0,
		"requant_output_scale":      outQ.Scale,
		"requant_output_zero_point": int(outQ.ZeroPoint),
		"fused_activation":          activation,
	}, outQ
}

func TestFusedConv2DMatchesStagedChain(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, act := range []string{"", "relu", "relu6"} {
		name := act
		if name == "" {
			name = "none"
		}
		t.Run(name, func(t *testing.T) {
			data := tensor.New(tensor.UInt8, tensor.Shape{1, 9, 9, 4})
			weight := tensor.New(tensor.UInt8, tensor.Shape{6, 3, 3, 4})
			bias := tensor.New(tensor.Int32, tensor.Shape{6})
			for i := range data.U8() {
				data.U8()[i] = uint8(rng.Intn(256))
			}
			for i := range weight.U8() {
				weight.U8()[i] = uint8(rng.Intn(256))
			}
			for i := range bias.I32() {
				bias.I32()[i] = int32(rng.Intn(2001) - 1000)
			}
			data.Quant = &tensor.QuantParams{Scale: 0.02, ZeroPoint: 128}
			weight.Quant = &tensor.QuantParams{Scale: 0.4, ZeroPoint: 121}

			attrs, outQ := fusedQuantAttrs(act)
			attrs["strides"] = []int{1, 1}
			attrs["padding"] = []int{1, 1, 1, 1}
			args := []*tensor.Tensor{data, weight, bias}

			fused := run(t, "qnn.conv2d_fused", args, attrs)
			staged := stagedReference(t, "qnn.conv2d", args, attrs, tensor.Shape{1, 9, 9, 6}, outQ, act)

			f, s := fused.U8(), staged.U8()
			for i := range f {
				if f[i] != s[i] {
					t.Fatalf("out[%d]: fused %d != staged %d", i, f[i], s[i])
				}
			}
		})
	}
}

// TestFusedConvAllocationsIndependentOfRows: the kernel's allocations are per
// call (its output, its row-loop closure, its scratch handles), none per
// output row — the count at 2·oh rows equals the count at oh.
func TestFusedConvAllocationsIndependentOfRows(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector makes sync.Pool drop scratch buffers at random")
	}
	old := parallel.SetMaxWorkers(1)
	defer parallel.SetMaxWorkers(old)
	weight := tensor.New(tensor.UInt8, tensor.Shape{6, 3, 3, 4})
	weight.Quant = &tensor.QuantParams{Scale: 0.4, ZeroPoint: 121}
	bias := tensor.New(tensor.Int32, tensor.Shape{6})
	attrs, outQ := fusedQuantAttrs("relu6")
	attrs["strides"] = []int{1, 1}
	attrs["padding"] = []int{1, 1, 1, 1}
	allocsAt := func(oh int) float64 {
		data := tensor.New(tensor.UInt8, tensor.Shape{1, oh, 9, 4})
		data.Quant = &tensor.QuantParams{Scale: 0.02, ZeroPoint: 128}
		outTy := &relay.TensorType{Shape: tensor.Shape{1, oh, 9, 6}, DType: tensor.UInt8, Quant: &outQ}
		args := []*tensor.Tensor{data, weight, bias}
		return testing.AllocsPerRun(100, func() {
			if _, err := Run("qnn.conv2d_fused", args, attrs, outTy); err != nil {
				t.Fatal(err)
			}
		})
	}
	if at9, at18 := allocsAt(9), allocsAt(18); at9 != at18 {
		t.Errorf("qnn.conv2d_fused allocates %v times at 9 output rows and %v at 18", at9, at18)
	}
}

func TestFusedDenseMatchesStagedChain(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, act := range []string{"", "relu", "relu6"} {
		name := act
		if name == "" {
			name = "none"
		}
		t.Run(name, func(t *testing.T) {
			data := tensor.New(tensor.UInt8, tensor.Shape{3, 17})
			weight := tensor.New(tensor.UInt8, tensor.Shape{11, 17})
			bias := tensor.New(tensor.Int32, tensor.Shape{11})
			for i := range data.U8() {
				data.U8()[i] = uint8(rng.Intn(256))
			}
			for i := range weight.U8() {
				weight.U8()[i] = uint8(rng.Intn(256))
			}
			for i := range bias.I32() {
				bias.I32()[i] = int32(rng.Intn(2001) - 1000)
			}
			data.Quant = &tensor.QuantParams{Scale: 0.02, ZeroPoint: 128}
			weight.Quant = &tensor.QuantParams{Scale: 0.4, ZeroPoint: 121}

			attrs, outQ := fusedQuantAttrs(act)
			attrs["units"] = 11
			args := []*tensor.Tensor{data, weight, bias}

			fused := run(t, "qnn.dense_fused", args, attrs)
			staged := stagedReference(t, "qnn.dense", args, attrs, tensor.Shape{3, 11}, outQ, act)

			f, s := fused.U8(), staged.U8()
			for i := range f {
				if f[i] != s[i] {
					t.Fatalf("out[%d]: fused %d != staged %d", i, f[i], s[i])
				}
			}
		})
	}
}
