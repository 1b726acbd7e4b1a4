package topi

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/race"
	"repro/internal/relay"
	"repro/internal/tensor"
)

// meanOracle is the mean kernel as it was before it took its sums from
// pooled scratch: a per-bucket count, an axis map and an index slice made
// per call.
func meanOracle(in *tensor.Tensor, axes []int, out *relay.TensorType) *tensor.Tensor {
	reduce := map[int]bool{}
	if axes == nil {
		for i := range in.Shape {
			reduce[i] = true
		}
	}
	for _, ax := range axes {
		if ax < 0 {
			ax += len(in.Shape)
		}
		reduce[ax] = true
	}
	res := tensor.New(out.DType, out.Shape)
	sums := make([]float64, res.Elems())
	counts := make([]int, res.Elems())
	idx := make([]int, len(in.Shape))
	src := in.F32()
	for flat := range src {
		rem := flat
		for i := len(in.Shape) - 1; i >= 0; i-- {
			idx[i] = rem % in.Shape[i]
			rem /= in.Shape[i]
		}
		o := 0
		for i, d := range in.Shape {
			if !reduce[i] {
				o = o*d + idx[i]
			}
		}
		sums[o] += float64(src[flat])
		counts[o]++
	}
	for i, d := 0, res.F32(); i < len(d); i++ {
		if counts[i] > 0 {
			d[i] = float32(sums[i] / float64(counts[i]))
		}
	}
	return res
}

// qnnConcatOracle is qnn.concatenate as it was before it requantized in
// place: every field with other parameters requantized into a tensor of its
// own, then the plain concatenation.
func qnnConcatOracle(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType) (*tensor.Tensor, error) {
	outScale := attrs.Float("output_scale", 1)
	outZp := int32(attrs.Int("output_zero_point", 0))
	rescaled := make([]*tensor.Tensor, len(args))
	for i, t := range args {
		inScale, inZp := outScale, outZp
		if t.Quant != nil {
			inScale, inZp = t.Quant.Scale, t.Quant.ZeroPoint
		}
		if inScale == outScale && inZp == outZp {
			rescaled[i] = t
			continue
		}
		r := tensor.New(out.DType, t.Shape)
		requantRange(r, t, inScale/outScale, inZp, outZp, out.DType, 0, t.Elems())
		rescaled[i] = r
	}
	return concatenateKernel(rescaled, attrs, out, nil)
}

// prepared returns the launch of op for args' types: the steady state the
// planned executor and the Neuron runtime run.
func prepared(tb testing.TB, op string, args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType) Launch {
	tb.Helper()
	l, err := Prepare(op, typesOf(args), attrs, out)
	if err != nil {
		tb.Fatal(err)
	}
	return l
}

// inferOut types one call of op over args the way the planner does.
func inferOut(t *testing.T, op string, args []*tensor.Tensor, attrs relay.Attrs) *relay.TensorType {
	t.Helper()
	types := make([]relay.Type, len(args))
	for i, a := range args {
		types[i] = &relay.TensorType{Shape: a.Shape, DType: a.DType, Quant: a.Quant}
	}
	if op == "qnn.concatenate" {
		types = []relay.Type{&relay.TupleType{Fields: types}}
	}
	ty, err := relay.GetOp(op).Infer(types, attrs)
	if err != nil {
		t.Fatalf("%s: %v", op, err)
	}
	return ty.(*relay.TensorType)
}

// The mean kernel reduces every axis set bitwise as the old loop did — at
// a rank past its stack arrays too — and writes into a warm destination
// without allocating.
func TestMeanMatchesOracle(t *testing.T) {
	cases := []struct {
		shape tensor.Shape
		axes  []int
		keep  bool
	}{
		{tensor.Shape{1, 7, 7, 16}, []int{1, 2}, false},
		{tensor.Shape{1, 7, 7, 16}, []int{1, 2}, true},
		{tensor.Shape{2, 5, 3}, []int{-1}, false},
		{tensor.Shape{2, 5, 3}, []int{0, 2}, true},
		{tensor.Shape{4, 6}, nil, false},
		{tensor.Shape{2, 1, 2, 1, 2, 1, 2, 1, 3}, []int{0, 4, 8}, false},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%v/%v/keep=%t", c.shape, c.axes, c.keep), func(t *testing.T) {
			in := tensor.New(tensor.Float32, c.shape)
			in.FillUniform(tensor.NewRNG(uint64(len(c.shape))), -3, 3)
			attrs := relay.Attrs{"keepdims": c.keep}
			if c.axes != nil {
				attrs["axis"] = c.axes
			}
			out := inferOut(t, "mean", []*tensor.Tensor{in}, attrs)
			want := meanOracle(in, c.axes, out)
			dst := tensor.New(out.DType, out.Shape)
			args := []*tensor.Tensor{in}
			l := prepared(t, "mean", args, attrs, out)
			if err := l.Run(args, dst); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(dst.F32(), want.F32()) {
				t.Fatalf("mean = %v, want %v", dst.F32(), want.F32())
			}
			if race.Enabled || len(c.shape) > 8 {
				return
			}
			if n := testing.AllocsPerRun(20, func() { _ = l.Run(args, dst) }); n != 0 {
				t.Errorf("mean allocates %v objects a call, want 0", n)
			}
		})
	}
}

// qnn.concatenate requantizes each field that needs it bitwise as the old
// two-step kernel did, straight into a warm destination without allocating.
func TestQnnConcatenateMatchesOracle(t *testing.T) {
	field := func(dt tensor.DType, shape tensor.Shape, q *tensor.QuantParams, seed uint64) *tensor.Tensor {
		f := tensor.New(tensor.Float32, shape)
		f.FillUniform(tensor.NewRNG(seed), -2, 2)
		if q == nil {
			r := f.QuantizeTo(dt, tensor.QuantParams{Scale: 0.02, ZeroPoint: 3})
			r.Quant = nil
			return r
		}
		return f.QuantizeTo(dt, *q)
	}
	for _, dt := range []tensor.DType{tensor.UInt8, tensor.Int8} {
		outQ := tensor.QuantParams{Scale: 0.02, ZeroPoint: 3}
		for _, axis := range []int{1, -1} {
			args := []*tensor.Tensor{
				field(dt, tensor.Shape{1, 4, 4, 3}, &outQ, 1),                                           // shares the output's
				field(dt, tensor.Shape{1, 4, 4, 3}, &tensor.QuantParams{Scale: 0.05, ZeroPoint: 3}, 2),  // other scale
				field(dt, tensor.Shape{1, 4, 4, 3}, &tensor.QuantParams{Scale: 0.02, ZeroPoint: -7}, 3), // other zero point
				field(dt, tensor.Shape{1, 4, 4, 3}, nil, 4),                                             // none: taken as shared
			}
			if axis == 1 {
				for i, a := range args {
					args[i] = a.Reshape(tensor.Shape{1, 3, 4, 4})
					args[i].Quant = a.Quant
				}
			}
			attrs := relay.Attrs{"axis": axis, "output_scale": outQ.Scale, "output_zero_point": int(outQ.ZeroPoint)}
			out := inferOut(t, "qnn.concatenate", args, attrs)
			want, err := qnnConcatOracle(args, attrs, out)
			if err != nil {
				t.Fatal(err)
			}
			dst := tensor.New(out.DType, out.Shape)
			l := prepared(t, "qnn.concatenate", args, attrs, out)
			if err := l.Run(args, dst); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < dst.Elems(); i++ {
				if dst.GetRaw(i) != want.GetRaw(i) {
					t.Fatalf("%v axis %d: element %d is %d, want %d", dt, axis, i, dst.GetRaw(i), want.GetRaw(i))
				}
			}
			if race.Enabled {
				continue
			}
			if n := testing.AllocsPerRun(20, func() { _ = l.Run(args, dst) }); n != 0 {
				t.Errorf("%v axis %d: qnn.concatenate allocates %v objects a call, want 0", dt, axis, n)
			}
		}
	}
}
