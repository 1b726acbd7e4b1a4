package topi_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/models"
	"repro/internal/relay"
	"repro/internal/tensor"
	"repro/internal/topi"
)

// convRow is one convolution problem: the op, its operand and output types
// and its attributes.
type convRow struct {
	from              string // the zoo model it came from, or "fixed"
	op                string
	data, weight, out *relay.TensorType
	attrs             relay.Attrs
}

func (r convRow) String() string {
	return fmt.Sprintf("%s: %s %s * %s -> %s [%s]", r.from, r.op, r.data, r.weight, r.out, r.attrs)
}

// fixedConvRows are three problems outside the zoo: a padded f32 3×3, a
// strided uint8 3×3 and an int8 1×1 — the only int8 convolution here.
func fixedConvRows(t *testing.T) []convRow {
	t.Helper()
	qnn := func(dt tensor.DType, zpIn, zpK int, a relay.Attrs) relay.Attrs {
		a["input_zero_point"], a["kernel_zero_point"] = zpIn, zpK
		a["input_scale"], a["kernel_scale"], a["out_dtype"] = 0.02, 0.4, "int32"
		return a
	}
	rows := []convRow{
		{op: "nn.conv2d", data: relay.TType(tensor.Float32, 1, 8, 8, 3), weight: relay.TType(tensor.Float32, 4, 3, 3, 3),
			attrs: relay.Attrs{"strides": []int{1, 1}, "padding": []int{1, 1, 1, 1}}},
		{op: "qnn.conv2d", data: relay.TType(tensor.UInt8, 1, 8, 8, 4), weight: relay.TType(tensor.UInt8, 6, 3, 3, 4),
			attrs: qnn(tensor.UInt8, 128, 119, relay.Attrs{"strides": []int{2, 2}, "padding": []int{1, 1, 1, 1}})},
		{op: "qnn.conv2d", data: relay.TType(tensor.Int8, 1, 6, 6, 4), weight: relay.TType(tensor.Int8, 4, 1, 1, 4),
			attrs: qnn(tensor.Int8, -3, 0, relay.Attrs{"strides": []int{1, 1}, "padding": []int{0, 0, 0, 0}})},
	}
	for i := range rows {
		r := &rows[i]
		r.from = "fixed"
		ty, err := relay.GetOp(r.op).Infer([]relay.Type{r.data, r.weight}, r.attrs)
		if err != nil {
			t.Fatalf("%s: %v", r, err)
		}
		r.out = ty.(*relay.TensorType)
	}
	return rows
}

// zooConvRows collects every distinct convolution problem of the lite zoo,
// from the type-checked source modules.
func zooConvRows(t *testing.T) []convRow {
	t.Helper()
	var rows []convRow
	seen := map[string]bool{}
	for _, name := range models.Names() {
		spec, err := models.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := spec.Build(models.SizeLite)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mod.Functions(func(fname string, f *relay.Function) {
			if _, err := relay.InferTypes(f); err != nil {
				t.Fatalf("%s.%s: %v", name, fname, err)
			}
			relay.PostOrderVisit(f, func(e relay.Expr) {
				call, ok := e.(*relay.Call)
				if !ok || call.Op == nil || (call.Op.Name != "nn.conv2d" && call.Op.Name != "qnn.conv2d") {
					return
				}
				r := convRow{from: name, op: call.Op.Name, attrs: call.Attrs,
					data:   call.Args[0].CheckedType().(*relay.TensorType),
					weight: call.Args[1].CheckedType().(*relay.TensorType),
					out:    call.CheckedType().(*relay.TensorType)}
				key := fmt.Sprint(r.op, r.data, r.weight, r.attrs)
				if !seen[key] {
					seen[key] = true
					rows = append(rows, r)
				}
			})
		})
	}
	return rows
}

// drawOperand fills a tensor of ty with values from rng: uniform in [-1, 1)
// for float32 — one value in four drawn from specials instead, if any —
// and every raw value for the 8-bit types.
func drawOperand(rng *rand.Rand, ty *relay.TensorType, specials []float32) *tensor.Tensor {
	x := tensor.New(ty.DType, ty.Shape)
	switch ty.DType {
	case tensor.Float32:
		for i := range x.F32() {
			x.F32()[i] = rng.Float32()*2 - 1
			if len(specials) > 0 && rng.Intn(4) == 0 {
				x.F32()[i] = specials[rng.Intn(len(specials))]
			}
		}
	case tensor.UInt8:
		for i := range x.U8() {
			x.U8()[i] = uint8(rng.Intn(256))
		}
	case tensor.Int8:
		for i := range x.I8() {
			x.I8()[i] = int8(rng.Intn(256) - 128)
		}
	}
	return x
}

// nanData and finiteWeights are the float operand classes of the NaN pass.
// The data mixes in NaN of both signs and two payloads and both infinities
// (Inf·0 and Inf − Inf make more NaN), the weights only the finite ones:
// both zeros and denormals. A weight must stay finite because a tap in the
// padding is skipped by the direct row but multiplied as a zero by the
// GEMM, and 0·Inf is NaN.
var (
	finiteWeights = []float32{0, float32(math.Copysign(0, -1)), 1e-40, -7e-42}
	nanData       = append([]float32{
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00002),
		float32(math.Inf(1)), float32(math.Inf(-1)),
	}, finiteWeights...)
)

// outBits is the bit pattern of a convolution output's element i: float32
// or the int32 accumulator.
func outBits(x *tensor.Tensor, i int) uint32 {
	if x.DType == tensor.Float32 {
		return math.Float32bits(x.F32()[i])
	}
	return uint32(x.I32()[i])
}

// isNaN reports whether element i of x is a float NaN.
func isNaN(x *tensor.Tensor, i int) bool {
	return x.DType == tensor.Float32 && x.F32()[i] != x.F32()[i]
}

// TestZooConvStrategiesMatch runs every convolution problem of the lite zoo,
// and three fixed ones, by the direct and by the indirect (im2col) strategy,
// and compares every output bit: the strategy rule (im2colPays) is a pure
// performance decision only while the two agree. A second pass draws the
// float problems' data with NaN, ±Inf, ±0 and denormals mixed in, and
// their weights with ±0 and denormals: there every non-NaN cell must still
// match bit for bit and every NaN cell must be NaN under both strategies.
// Its payload may differ — the one thing strategies may differ in
// (DESIGN.md §11): which of two NaN operands survives an add depends on the
// order the strategy accumulates in and on the operand order the compiler
// picks for an ADDSS.
func TestZooConvStrategiesMatch(t *testing.T) {
	zoo := zooConvRows(t)
	if len(zoo) == 0 {
		t.Fatal("the lite zoo has no convolution")
	}
	rng := rand.New(rand.NewSource(43))
	for _, specials := range []bool{false, true} {
		nanCells := 0
		for _, r := range append(fixedConvRows(t), zoo...) {
			var dataSp, weightSp []float32
			if specials {
				if r.data.DType != tensor.Float32 {
					continue
				}
				dataSp, weightSp = nanData, finiteWeights
			}
			args := []*tensor.Tensor{drawOperand(rng, r.data, dataSp), drawOperand(rng, r.weight, weightSp)}
			direct, err := topi.ConvBy(false, r.op, args, r.attrs, r.out)
			if err != nil {
				t.Fatalf("%s: direct: %v", r, err)
			}
			indirect, err := topi.ConvBy(true, r.op, args, r.attrs, r.out)
			if err != nil {
				t.Fatalf("%s: indirect: %v", r, err)
			}
			for i := 0; i < direct.Elems(); i++ {
				if dn, in := isNaN(direct, i), isNaN(indirect, i); dn || in {
					if !dn || !in {
						t.Fatalf("%s: specials %v: out[%d]: direct %#x, indirect %#x: NaN under one strategy only",
							r, specials, i, outBits(direct, i), outBits(indirect, i))
					}
					nanCells++
					continue
				}
				if d, m := outBits(direct, i), outBits(indirect, i); d != m {
					t.Fatalf("%s: specials %v: out[%d]: direct %#x, indirect %#x", r, specials, i, d, m)
				}
			}
		}
		if specials && nanCells == 0 {
			t.Fatal("the NaN pass produced no NaN cell")
		}
	}
}
