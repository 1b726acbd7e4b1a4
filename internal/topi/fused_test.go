package topi

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/parallel"
	"repro/internal/race"
	"repro/internal/relay"
	"repro/internal/tensor"
)

// stagedReference runs the unfused kernel chain the fused kernels replace:
// anchor (int32 accumulator, by launch) → nn.bias_add → qnn.requantize →
// activation. The fused kernels must match it bit-for-bit — this is the §3.3
// guarantee the graph executor relies on when it collapses the chain into
// one launch.
func stagedReference(t *testing.T, launch launchFn, anchor string, args []*tensor.Tensor, attrs relay.Attrs,
	outDT tensor.DType, outQ tensor.QuantParams, activation string) *tensor.Tensor {
	t.Helper()
	accScale := attrs.Float("requant_input_scale", 1)
	acc := runBy(t, launch, anchor, args[:2], attrs)
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
		"out_dtype":         outDT.String(),
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

// fusedDType is one quantized data type the fused tests draw operands in:
// data, weight and output share it.
type fusedDType struct {
	dt               tensor.DType
	zpIn, zpK, zpOut int
	rawMin           int32
}

var fusedDTypes = []fusedDType{
	{dt: tensor.UInt8, zpIn: 128, zpK: 121, zpOut: 7, rawMin: 0},
	{dt: tensor.Int8, zpIn: -3, zpK: 0, zpOut: -5, rawMin: -128},
}

// fusedOperands draws data and weight of fd's type, an int32 bias of one
// value per output channel when withBias, and the fused attrs. The requant
// scale maps a typical accumulator of the weight's k taps (≈ 5 500·√k for
// uniform 8-bit operands) onto ±64 output steps, so that few outputs clamp
// and every activation sees both signs.
func fusedOperands(rng *rand.Rand, fd fusedDType, dataShape, weightShape tensor.Shape, withBias bool, act string) ([]*tensor.Tensor, relay.Attrs, tensor.QuantParams) {
	attrs, outQ := fusedQuantAttrs(act)
	outQ.ZeroPoint = int32(fd.zpOut)
	spread := 5500 * math.Sqrt(float64(weightShape.Elems()/weightShape[0]))
	attrs["input_zero_point"] = fd.zpIn
	attrs["kernel_zero_point"] = fd.zpK
	attrs["requant_input_scale"] = outQ.Scale * 64 / spread
	attrs["requant_output_zero_point"] = fd.zpOut
	attrs["requant_out_dtype"] = fd.dt.String()

	draw := func(shape tensor.Shape, q tensor.QuantParams) *tensor.Tensor {
		x := tensor.New(fd.dt, shape)
		for i := 0; i < x.Elems(); i++ {
			setRaw(x, i, fd.rawMin+int32(rng.Intn(256)))
		}
		x.Quant = &q
		return x
	}
	args := []*tensor.Tensor{
		draw(dataShape, tensor.QuantParams{Scale: 0.02, ZeroPoint: int32(fd.zpIn)}),
		draw(weightShape, tensor.QuantParams{Scale: 0.4, ZeroPoint: int32(fd.zpK)}),
	}
	if withBias {
		bias := tensor.New(tensor.Int32, tensor.Shape{weightShape[0]})
		for i := range bias.I32() {
			bias.I32()[i] = int32((float64(rng.Float64())*2 - 1) * spread)
		}
		args = append(args, bias)
	}
	return args, attrs, outQ
}

// fusedActivations are the fused_activation values, by subtest name.
var fusedActivations = []struct{ name, act string }{{"none", ""}, {"relu", "relu"}, {"relu6", "relu6"}}

// launchFn launches op on args into out's type: Run, by the strategy rule,
// or convBy, with the strategy forced.
type launchFn func(op string, args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType) (*tensor.Tensor, error)

// runBy is run through launch.
func runBy(t *testing.T, launch launchFn, op string, args []*tensor.Tensor, attrs relay.Attrs) *tensor.Tensor {
	t.Helper()
	out, err := launch(op, args, attrs, inferOut(t, op, args, attrs))
	if err != nil {
		t.Fatalf("%s: %v", op, err)
	}
	return out
}

// convStrategies are the two convolution strategies, by subtest name.
var convStrategies = []struct {
	name   string
	im2col bool
}{{"direct", false}, {"im2col", true}}

// convBy launches a convolution — nn.conv2d, plain or in its Neuron form,
// qnn.conv2d or qnn.conv2d_fused — by the given strategy instead of the
// rule's, with the registered kernel's epilogue: the indirect GEMM on any
// geometry, or the direct one (directConvF32, directConvQnn).
func convBy(im2col bool) launchFn {
	return func(op string, args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType) (*tensor.Tensor, error) {
		p := convParams(attrs)
		switch op {
		case "nn.conv2d":
			ep, err := newEpilogueF32(op, typesOf(args), attrs, out)
			if err != nil {
				return nil, err
			}
			ep = ep.bind(args)
			if !im2col {
				return directConvF32(args[0], args[1], p, out, ep), nil
			}
			return convF32(args[0], args[1], p, out, nil, true, ep), nil
		case "qnn.conv2d", "qnn.conv2d_fused":
			var ep *epilogue
			if op == "qnn.conv2d_fused" {
				e, err := newEpilogue(op, typesOf(args), attrs, out)
				if err != nil {
					return nil, err
				}
				e = e.bind(args)
				ep = &e
			}
			zpIn, zpK := int32(attrs.Int("input_zero_point", 0)), int32(attrs.Int("kernel_zero_point", 0))
			if !im2col {
				return directConvQnn(args[0], args[1], p, zpIn, zpK, out, ep)
			}
			return convQnn(args[0], args[1], p, zpIn, zpK, out, nil, true, ep)
		}
		return nil, fmt.Errorf("convBy: %s is not a convolution", op)
	}
}

// naiveDense launches nn.dense and qnn.dense by the naive single-accumulator
// loops (naiveGemmF32, naiveGemmI32 over raw − zero point), the anchor of
// the dense tests' second staged chain: the fused launch and the first chain
// both run the dense launch, so a fault there cancels out between them.
func naiveDense(op string, args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType) (*tensor.Tensor, error) {
	data, weight := args[0], args[1]
	m, k, n := data.Shape[0], data.Shape[1], weight.Shape[0]
	res := tensor.New(out.DType, out.Shape)
	switch op {
	case "nn.dense":
		naiveGemmF32(m, n, k, data.F32(), k, weight.F32(), k, res.F32(), n)
	case "qnn.dense":
		a := rawMinusZpI32(data, int32(attrs.Int("input_zero_point", 0)))
		b := rawMinusZpI32(weight, int32(attrs.Int("kernel_zero_point", 0)))
		naiveGemmI32(m, n, k, a, k, b, k, res.I32(), n)
	default:
		return nil, fmt.Errorf("naiveDense: %s is not a dense layer", op)
	}
	return res, nil
}

// checkFusedAgainstStaged runs one shape and data type, with and without
// bias, through the fused launch and the staged chain; with an oracle, also
// through the staged chain whose anchor the oracle launches.
func checkFusedAgainstStaged(t *testing.T, rng *rand.Rand, launch, oracle launchFn, fused, anchor string, fd fusedDType,
	dataShape, weightShape tensor.Shape, extra relay.Attrs, act string) {
	t.Helper()
	for _, withBias := range []bool{false, true} {
		args, attrs, outQ := fusedOperands(rng, fd, dataShape, weightShape, withBias, act)
		for k, v := range extra {
			attrs[k] = v
		}
		got := runBy(t, launch, fused, args, attrs)
		refs := []launchFn{launch, oracle}
		if oracle == nil {
			refs = refs[:1]
		}
		for _, by := range refs {
			want := stagedReference(t, by, anchor, args, attrs, fd.dt, outQ, act)
			if got.DType != want.DType || !got.Shape.Equal(want.Shape) {
				t.Fatalf("bias %v: fused %s %s, staged %s %s", withBias, got.DType, got.Shape, want.DType, want.Shape)
			}
			for i := 0; i < got.Elems(); i++ {
				if got.GetRaw(i) != want.GetRaw(i) {
					t.Fatalf("bias %v: out[%d]: fused %d != staged %d", withBias, i, got.GetRaw(i), want.GetRaw(i))
				}
			}
		}
	}
}

// TestFusedConv2DMatchesStagedChain pins qnn.conv2d_fused to the staged chain
// bit for bit under each activation on every convCases shape — depthwise,
// grouped, one channel per group, strided, dilated, asymmetric padding, the
// showcase trio's layers — for uint8 and int8 data, with and without bias,
// with the fused launch and its staged anchor forced onto each strategy.
func TestFusedConv2DMatchesStagedChain(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, a := range fusedActivations {
		t.Run(a.name, func(t *testing.T) {
			for _, cc := range convCases {
				dataShape := tensor.Shape{cc.n, cc.h, cc.w, cc.c}
				weightShape := tensor.Shape{cc.oc, cc.kh, cc.kw, cc.c / cc.groups}
				for _, fd := range fusedDTypes {
					for _, st := range convStrategies {
						t.Run(fmt.Sprintf("%s/%s/%s", cc.name, fd.dt, st.name), func(t *testing.T) {
							checkFusedAgainstStaged(t, rng, convBy(st.im2col), nil, "qnn.conv2d_fused", "qnn.conv2d", fd,
								dataShape, weightShape, cc.attrs(), a.act)
						})
					}
				}
			}
		})
	}
}

// TestFusedDenseMatchesStagedChain is the qnn.dense_fused analogue over every
// gemmDims shape, against the staged chain and against the chain whose
// qnn.dense is the naive loop (naiveDense).
func TestFusedDenseMatchesStagedChain(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, a := range fusedActivations {
		t.Run(a.name, func(t *testing.T) {
			for _, d := range gemmDims {
				m, n, k := d[0], d[1], d[2]
				for _, fd := range fusedDTypes {
					t.Run(fmt.Sprintf("m%d_n%d_k%d/%s", m, n, k, fd.dt), func(t *testing.T) {
						checkFusedAgainstStaged(t, rng, Run, naiveDense, "qnn.dense_fused", "qnn.dense", fd,
							tensor.Shape{m, k}, tensor.Shape{n, k}, relay.Attrs{"units": n}, a.act)
					})
				}
			}
		})
	}
}

// convCaseNamed returns the convCases entry of that name.
func convCaseNamed(t *testing.T, name string) convCase {
	for _, cc := range convCases {
		if cc.name == name {
			return cc
		}
	}
	t.Fatalf("no conv case %q", name)
	return convCase{}
}

// TestFusedConvObeysStrategyRule: qnn.conv2d_fused takes the strategy
// qnn.conv2d takes. Only the indirect GEMM packs the weight's pair panels
// (the direct row keeps its own widened form on the weight), so whether the
// launch left panels on the weight tells which path ran: none on a
// depthwise layer (one channel per group stays direct), and panels on a
// layer the rule sends to the GEMM.
func TestFusedConvObeysStrategyRule(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	packed := func(cc convCase) bool {
		t.Helper()
		args, attrs, _ := fusedOperands(rng, fusedDTypes[0], tensor.Shape{cc.n, cc.h, cc.w, cc.c},
			tensor.Shape{cc.oc, cc.kh, cc.kw, cc.c / cc.groups}, true, "relu")
		for k, v := range cc.attrs() {
			attrs[k] = v
		}
		run(t, "qnn.conv2d_fused", args, attrs)
		_, ok := args[1].Derived().(*packedWeight[i16x2])
		return ok
	}

	if packed(convCaseNamed(t, "depthwise")) {
		t.Errorf("depthwise qnn.conv2d_fused packed weight panels; the rule keeps it on the direct loop")
	}
	if unit := convCaseNamed(t, "unit"); !packed(unit) {
		t.Errorf("qnn.conv2d_fused on %s left no panels on its weight, want the rule's im2col", unit.name)
	}
}

// TestFusedBiasLengthIsChecked: a bias that is not one value per output
// channel is an error naming both lengths — not a slice panic inside a
// parallel worker, which would take the process down.
func TestFusedBiasLengthIsChecked(t *testing.T) {
	cases := []struct {
		op                string
		data, weight, out tensor.Shape
		bias              int
	}{
		{"qnn.conv2d_fused", tensor.Shape{1, 9, 9, 4}, tensor.Shape{6, 3, 3, 4}, tensor.Shape{1, 9, 9, 6}, 3},
		{"qnn.conv2d_fused", tensor.Shape{1, 9, 9, 4}, tensor.Shape{6, 3, 3, 4}, tensor.Shape{1, 9, 9, 6}, 7},
		{"qnn.dense_fused", tensor.Shape{3, 17}, tensor.Shape{11, 17}, tensor.Shape{3, 11}, 4},
		{"qnn.dense_fused", tensor.Shape{3, 17}, tensor.Shape{11, 17}, tensor.Shape{3, 11}, 0},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/bias%d", tc.op, tc.bias), func(t *testing.T) {
			attrs, outQ := fusedQuantAttrs("relu")
			attrs["padding"] = []int{1, 1, 1, 1}
			args := []*tensor.Tensor{tensor.New(tensor.UInt8, tc.data), tensor.New(tensor.UInt8, tc.weight),
				tensor.New(tensor.Int32, tensor.Shape{tc.bias})}
			outTy := &relay.TensorType{Shape: tc.out, DType: tensor.UInt8, Quant: &outQ}
			_, err := Run(tc.op, args, attrs, outTy)
			want := fmt.Sprintf("bias has %d elements, output has %d channels", tc.bias, tc.out[len(tc.out)-1])
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("err = %v, want one containing %q", err, want)
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

// specialF32 are the operand classes the float epilogue pins mix into their
// random data: NaN of both signs, both infinities, both zeros, denormals,
// and the relu6 bounds themselves.
var specialF32 = []float32{
	math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00002),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -7e-42,
	6, -6, math.Nextafter32(6, 7),
}

// drawF32 fills a float tensor of shape from rng: uniform in [−1, 1), with
// one value in 64 drawn from specialF32 so that most output cells stay
// finite while NaN, infinities, signed zeros and denormals reach every
// stage.
func drawF32(rng *rand.Rand, shape tensor.Shape) *tensor.Tensor {
	x := tensor.New(tensor.Float32, shape)
	for i := range x.F32() {
		if rng.Intn(64) == 0 {
			x.F32()[i] = specialF32[rng.Intn(len(specialF32))]
		} else {
			x.F32()[i] = rng.Float32()*2 - 1
		}
	}
	return x
}

// stagedReferenceF32 is the float chain the Neuron runtime used to run for a
// CONV_2D/FULLY_CONNECTED with an absorbed bias and fused activation: anchor
// (by launch) → nn.bias_add → nn.relu or clip [0, 6].
func stagedReferenceF32(t *testing.T, launch launchFn, anchor string, args []*tensor.Tensor, attrs relay.Attrs, activation string) *tensor.Tensor {
	t.Helper()
	out := runBy(t, launch, anchor, args[:2], attrs)
	if len(args) == 3 {
		out = run(t, "nn.bias_add", []*tensor.Tensor{out, args[2]}, nil)
	}
	switch activation {
	case "relu":
		out = run(t, "nn.relu", []*tensor.Tensor{out}, nil)
	case "relu6":
		out = run(t, "clip", []*tensor.Tensor{out}, relay.Attrs{"a_min": 0.0, "a_max": 6.0})
	}
	return out
}

// checkFusedF32AgainstStaged runs anchor in its Neuron form (bias as
// args[2], fused_activation) and the staged chain on the same operands, with
// and without bias, and compares every bit — NaN payloads included: the
// launch adds and clamps as the staged kernels do. With an oracle it also
// compares against the staged chain whose anchor the oracle launches, every
// bit of every non-NaN cell and NaN for NaN: which operand's payload a
// reduction keeps is its own order's business.
func checkFusedF32AgainstStaged(t *testing.T, rng *rand.Rand, launch, oracle launchFn, anchor string, dataShape, weightShape tensor.Shape, attrs relay.Attrs, act string) {
	t.Helper()
	for _, withBias := range []bool{false, true} {
		args := []*tensor.Tensor{drawF32(rng, dataShape), drawF32(rng, weightShape)}
		if withBias {
			args = append(args, drawF32(rng, tensor.Shape{weightShape[0]}))
		}
		fusedAttrs := attrs.Clone()
		fusedAttrs["fused_activation"] = act
		want := stagedReferenceF32(t, launch, anchor, args, attrs, act)
		got, err := launch(anchor, args, fusedAttrs, &relay.TensorType{Shape: want.Shape, DType: tensor.Float32})
		if err != nil {
			t.Fatal(err)
		}
		if i, ok := sameF32Bits(got.F32(), want.F32()); !ok {
			t.Fatalf("bias %v: out[%d]: fused %v (%#08x), staged %v (%#08x)", withBias, i,
				got.F32()[i], math.Float32bits(got.F32()[i]), want.F32()[i], math.Float32bits(want.F32()[i]))
		}
		if oracle == nil {
			continue
		}
		naive := stagedReferenceF32(t, oracle, anchor, args, attrs, act).F32()
		for i, g := range got.F32() {
			if bothNaN := g != g && naive[i] != naive[i]; !bothNaN && math.Float32bits(g) != math.Float32bits(naive[i]) {
				t.Fatalf("bias %v: out[%d]: fused %v (%#08x), staged on the naive loop %v (%#08x)", withBias, i,
					g, math.Float32bits(g), naive[i], math.Float32bits(naive[i]))
			}
		}
	}
}

// TestFusedF32ConvMatchesStagedChain pins nn.conv2d's Neuron form to the
// staged chain under each activation on every convCases shape — direct and
// im2col, grouped, depthwise — with and without bias, with the launch and
// its staged anchor forced onto each strategy.
func TestFusedF32ConvMatchesStagedChain(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, a := range fusedActivations {
		t.Run(a.name, func(t *testing.T) {
			for _, cc := range convCases {
				dataShape := tensor.Shape{cc.n, cc.h, cc.w, cc.c}
				weightShape := tensor.Shape{cc.oc, cc.kh, cc.kw, cc.c / cc.groups}
				for _, st := range convStrategies {
					t.Run(cc.name+"/"+st.name, func(t *testing.T) {
						checkFusedF32AgainstStaged(t, rng, convBy(st.im2col), nil, "nn.conv2d", dataShape, weightShape, cc.attrs(), a.act)
					})
				}
			}
		})
	}
}

// TestFusedF32DenseMatchesStagedChain is the nn.dense analogue over every
// gemmDims shape, against the staged chain and against the chain whose
// nn.dense is the naive loop (naiveDense).
func TestFusedF32DenseMatchesStagedChain(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, a := range fusedActivations {
		t.Run(a.name, func(t *testing.T) {
			for _, d := range gemmDims {
				m, n, k := d[0], d[1], d[2]
				t.Run(fmt.Sprintf("m%d_n%d_k%d", m, n, k), func(t *testing.T) {
					checkFusedF32AgainstStaged(t, rng, Run, naiveDense, "nn.dense", tensor.Shape{m, k}, tensor.Shape{n, k},
						relay.Attrs{"units": n}, a.act)
				})
			}
		})
	}
}

// TestFusedF32EpilogueIsChecked: the float launch refuses a bias of the
// wrong length or type and an unknown activation, as errors.
func TestFusedF32EpilogueIsChecked(t *testing.T) {
	data, weight := tensor.New(tensor.Float32, tensor.Shape{1, 5, 5, 3}), tensor.New(tensor.Float32, tensor.Shape{4, 3, 3, 3})
	outTy := &relay.TensorType{Shape: tensor.Shape{1, 3, 3, 4}, DType: tensor.Float32}
	for _, tc := range []struct {
		name string
		bias *tensor.Tensor
		act  string
		want string
	}{
		{"short bias", tensor.New(tensor.Float32, tensor.Shape{3}), "", "bias has 3 elements, output has 4 channels"},
		{"int bias", tensor.New(tensor.Int32, tensor.Shape{4}), "", "bias must be float32"},
		{"activation", tensor.New(tensor.Float32, tensor.Shape{4}), "tanh", `unknown activation "tanh"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run("nn.conv2d", []*tensor.Tensor{data, weight, tc.bias}, relay.Attrs{"fused_activation": tc.act}, outTy)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestFusedF32ConvDoesNotAllocate: a steady-state nn.conv2d launch in the
// Neuron form — bias and relu, into a planned destination — allocates
// nothing on the serial path, on either strategy: the row loop is a plain
// call, the scratch is pooled and the weight panels are cached.
func TestFusedF32ConvDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector makes sync.Pool drop scratch buffers at random")
	}
	old := parallel.SetMaxWorkers(1)
	defer parallel.SetMaxWorkers(old)
	rng := rand.New(rand.NewSource(43))
	for _, name := range []string{"unit", "depthwise"} {
		cc := convCaseNamed(t, name)
		oh, ow := cc.outShape()
		outTy := &relay.TensorType{Shape: tensor.Shape{cc.n, oh, ow, cc.oc}, DType: tensor.Float32}
		args := []*tensor.Tensor{
			drawF32(rng, tensor.Shape{cc.n, cc.h, cc.w, cc.c}),
			drawF32(rng, tensor.Shape{cc.oc, cc.kh, cc.kw, cc.c / cc.groups}),
			drawF32(rng, tensor.Shape{cc.oc}),
		}
		attrs := cc.attrs()
		attrs["fused_activation"] = "relu"
		dst := tensor.New(tensor.Float32, outTy.Shape)
		l := prepared(t, "nn.conv2d", args, attrs, outTy)
		allocs := testing.AllocsPerRun(100, func() {
			if err := l.Run(args, dst); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: fused nn.conv2d allocates %v times per launch on the serial path, want 0", name, allocs)
		}
	}
}

// A split launch allocates nothing either: at two workers a fused f32
// convolution and a top-level dense launch big enough to split (millions of MACs,
// hundreds of parallel grains) run through the pool with their closure data
// copied into reused job records, and write the same bits as one worker.
func TestSplitLaunchesDoNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector makes sync.Pool drop scratch buffers at random")
	}
	old := parallel.SetMaxWorkers(2)
	defer parallel.SetMaxWorkers(old)
	rng := rand.New(rand.NewSource(47))
	check := func(name string, run func(), out []float32) {
		t.Helper()
		parallel.SetMaxWorkers(1)
		run()
		want := append([]float32(nil), out...)
		parallel.SetMaxWorkers(2)
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("%s allocates %v times per launch split over two workers, want 0", name, allocs)
		}
		for i := range want {
			if math.Float32bits(out[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: split output differs from serial at %d", name, i)
			}
		}
	}

	cc := convCase{name: "split", n: 1, h: 24, w: 24, c: 16, oc: 32, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1, pad: samePad}
	oh, ow := cc.outShape()
	outTy := &relay.TensorType{Shape: tensor.Shape{cc.n, oh, ow, cc.oc}, DType: tensor.Float32}
	args := []*tensor.Tensor{
		drawF32(rng, tensor.Shape{cc.n, cc.h, cc.w, cc.c}),
		drawF32(rng, tensor.Shape{cc.oc, cc.kh, cc.kw, cc.c}),
		drawF32(rng, tensor.Shape{cc.oc}),
	}
	attrs := cc.attrs()
	attrs["fused_activation"] = "relu"
	dst := tensor.New(tensor.Float32, outTy.Shape)
	l := prepared(t, "nn.conv2d", args, attrs, outTy)
	check("fused nn.conv2d", func() {
		if err := l.Run(args, dst); err != nil {
			t.Fatal(err)
		}
	}, dst.F32())

	s := gemmShapes[1]
	a, bpack, _ := gemmF32Case(rng, s.m, s.n, s.k, s.k, s.n)
	c := make([]float32, s.m*s.n)
	tab := mustTable(newDenseTable[float32](s.m, s.k, s.k))
	check("denseGemmF32", func() { denseGemmF32(tab, a, bpack, c, s.m, s.n, s.k, s.n, epilogueF32{}) }, c)
}

// roundHalfAwayBranchy is roundHalfAwayF as it was written before it lost
// its branch.
func roundHalfAwayBranchy(x float64) int32 {
	if x >= 0 {
		return int32(float64(x) + 0.5)
	}
	return int32(float64(x) - 0.5)
}

// applyPerElement is the epilogue as it ran before the typed rows: the
// branchy rounding, clampToDType and setRaw's dtype switch per element.
func applyPerElement(e *epilogue, res *tensor.Tensor, acc []int32, base int) {
	for off := 0; off < len(acc); off += e.channels {
		for f, a := range acc[off : off+e.channels] {
			if e.bias != nil {
				a += e.bias[f]
			}
			q := clampToDType(roundHalfAwayBranchy(float64(a-e.inZp)*e.ratio)+e.outZp, e.dt)
			if e.lut != nil {
				q = e.lut.tab[q-e.lut.base]
			}
			setRaw(res, base+off+f, q)
		}
	}
}

// TestRoundHalfAwayMatchesBranchy: the branch-free rounding equals the branchy
// one on ties of both signs, both zeros, the float64 just below 0.5, values
// past the int32 range, infinities and NaN.
func TestRoundHalfAwayMatchesBranchy(t *testing.T) {
	for _, x := range []float64{
		0, math.Copysign(0, -1), 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 1e9 + 0.5, -1e9 - 0.5,
		0.49999999999999994, -0.49999999999999994, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		2147483647.5, -2147483648.5, 1e300, -1e300, math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		if got, want := roundHalfAwayF(x), roundHalfAwayBranchy(x); got != want {
			t.Errorf("roundHalfAwayF(%v) = %d, branchy %d", x, got, want)
		}
	}
}

// TestEpilogueRowsMatchPerElement pins the typed epilogue against the
// per-element loop for uint8 and int8 outputs, with and without bias, under
// every activation: random accumulators, accumulators whose rescaled value
// is an exact .5 tie of either sign (the ratio is a power of two), values
// that clamp at both ends, and int32 extremes whose bias and zero-point
// arithmetic wraps.
func TestEpilogueRowsMatchPerElement(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	const channels, pixels = 6, 50
	for _, fd := range fusedDTypes {
		for _, a := range fusedActivations {
			for _, withBias := range []bool{false, true} {
				for _, ratio := range []float64{0.5, 0.25, 0.0137} {
					attrs, outQ := fusedQuantAttrs(a.act)
					outQ.ZeroPoint = int32(fd.zpOut)
					attrs["requant_input_scale"] = ratio * outQ.Scale
					attrs["requant_input_zero_point"] = 3
					attrs["requant_output_zero_point"] = fd.zpOut
					out := &relay.TensorType{Shape: tensor.Shape{1, 1, pixels, channels}, DType: fd.dt, Quant: &outQ}
					args := []*tensor.Tensor{nil, nil}
					if withBias {
						bias := tensor.New(tensor.Int32, tensor.Shape{channels})
						for i := range bias.I32() {
							bias.I32()[i] = int32(rng.Intn(2001) - 1000)
						}
						bias.I32()[0] = math.MaxInt32
						args = append(args, bias)
					}
					in := []*relay.TensorType{{}, {}, {Shape: tensor.Shape{channels}, DType: tensor.Int32}}
					e, err := newEpilogue("qnn.conv2d_fused", in[:len(args)], attrs, out)
					if err != nil {
						t.Fatal(err)
					}
					ep := e.bind(args)
					acc := make([]int32, pixels*channels)
					for i := range acc {
						switch rng.Intn(4) {
						case 0:
							// Even, so acc − 3 is odd: a tie at ratio 0.5.
							acc[i] = int32(rng.Intn(2001)-1000) &^ 1
						case 1:
							acc[i] = int32(rng.Intn(100001) - 50000)
						default:
							acc[i] = int32(rng.Intn(801) - 400)
						}
					}
					acc[0], acc[1], acc[2] = math.MaxInt32, math.MinInt32, math.MinInt32+1
					got, want := tensor.New(fd.dt, out.Shape), tensor.New(fd.dt, out.Shape)
					for _, base := range []int{0, channels * 20} {
						ep.apply(got, acc[base:], base)
						applyPerElement(&ep, want, acc[base:], base)
					}
					for i := 0; i < got.Elems(); i++ {
						if got.GetRaw(i) != want.GetRaw(i) {
							t.Fatalf("%s %s bias %v ratio %v: out[%d] = %d, per-element %d (acc %d)",
								fd.dt, a.name, withBias, ratio, i, got.GetRaw(i), want.GetRaw(i), acc[i])
						}
					}
				}
			}
		}
	}
}

// TestFusedQnnConvDoesNotAllocate: a steady-state qnn.conv2d_fused launch —
// bias, requantize and relu6 into a planned destination — allocates nothing
// on the serial path, on the im2col and on the depthwise direct strategy:
// the row loop is a plain call, the epilogue is copied into it by value, the
// scratch is pooled and the weight pair panels are cached.
func TestFusedQnnConvDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector makes sync.Pool drop scratch buffers at random")
	}
	old := parallel.SetMaxWorkers(1)
	defer parallel.SetMaxWorkers(old)
	rng := rand.New(rand.NewSource(61))
	for _, name := range []string{"unit", "depthwise"} {
		cc := convCaseNamed(t, name)
		oh, ow := cc.outShape()
		args, attrs, outQ := fusedOperands(rng, fusedDTypes[0], tensor.Shape{cc.n, cc.h, cc.w, cc.c},
			tensor.Shape{cc.oc, cc.kh, cc.kw, cc.c / cc.groups}, true, "relu6")
		for k, v := range cc.attrs() {
			attrs[k] = v
		}
		outTy := &relay.TensorType{Shape: tensor.Shape{cc.n, oh, ow, cc.oc}, DType: tensor.UInt8, Quant: &outQ}
		dst := tensor.New(tensor.UInt8, outTy.Shape)
		q := outQ
		dst.Quant = &q
		l := prepared(t, "qnn.conv2d_fused", args, attrs, outTy)
		allocs := testing.AllocsPerRun(100, func() {
			if err := l.Run(args, dst); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: qnn.conv2d_fused allocates %v times per launch on the serial path, want 0", name, allocs)
		}
	}
}

// TestQuantizedKernelsRefuseZeroPoints: the quantized convolution and dense
// kernels, fused or not, return an error for a zero point outside its
// operand's 8-bit dtype — whose (raw − zp) the int16 panels cannot hold —
// and for operands that are not 8-bit, instead of computing a wrong answer.
func TestQuantizedKernelsRefuseZeroPoints(t *testing.T) {
	conv := []*tensor.Tensor{tensor.New(tensor.UInt8, tensor.Shape{1, 5, 5, 3}), tensor.New(tensor.UInt8, tensor.Shape{4, 3, 3, 3})}
	dense := []*tensor.Tensor{tensor.New(tensor.UInt8, tensor.Shape{2, 6}), tensor.New(tensor.UInt8, tensor.Shape{4, 6})}
	convI32 := []*tensor.Tensor{tensor.New(tensor.Int32, tensor.Shape{1, 5, 5, 3}), conv[1]}
	convOut, denseOut := tensor.Shape{1, 3, 3, 4}, tensor.Shape{2, 4}
	for _, tc := range []struct {
		op        string
		args      []*tensor.Tensor
		out       tensor.Shape
		zpIn, zpK int
		want      string
	}{
		{"qnn.conv2d", conv, convOut, 300, 0, "input_zero_point 300 is outside the uint8 range [0, 255]"},
		{"qnn.conv2d", conv, convOut, 0, -1, "kernel_zero_point -1 is outside the uint8 range"},
		{"qnn.conv2d_fused", conv, convOut, 256, 0, "input_zero_point 256"},
		{"qnn.dense", dense, denseOut, 0, 999, "kernel_zero_point 999"},
		{"qnn.dense_fused", dense, denseOut, -7, 0, "input_zero_point -7"},
		{"qnn.conv2d", convI32, convOut, 0, 0, "input_zero_point applies to int32, not an 8-bit type"},
	} {
		t.Run(fmt.Sprintf("%s/%d_%d", tc.op, tc.zpIn, tc.zpK), func(t *testing.T) {
			attrs, outQ := fusedQuantAttrs("")
			attrs["input_zero_point"], attrs["kernel_zero_point"] = tc.zpIn, tc.zpK
			outTy := &relay.TensorType{Shape: tc.out, DType: tensor.Int32}
			if strings.HasSuffix(tc.op, "_fused") {
				outTy = &relay.TensorType{Shape: tc.out, DType: tensor.UInt8, Quant: &outQ}
			}
			_, err := Run(tc.op, tc.args, attrs, outTy)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}
