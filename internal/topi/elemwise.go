package topi

import (
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/relay"
	"repro/internal/tensor"
)

// unaryF32 registers a float32 map kernel that applies f to every element.
func unaryF32(name string, f func(float32) float32) {
	mapF32(name, func(dst, src []float32) {
		for i, v := range src {
			dst[i] = f(v)
		}
	})
}

// mapF32 registers a float32 map kernel from its loop over one chunk
// (len(dst) == len(src)): an op hot enough to matter passes a loop with its
// body inline instead of paying unaryF32's call through f per element.
func mapF32(name string, loop func(dst, src []float32)) {
	Register(name, func(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
		if err := wantArgs(args, 1, name); err != nil {
			return nil, err
		}
		in := args[0]
		if in.DType != tensor.Float32 {
			// Quantized pass-through for activations the type checker allowed
			// (e.g. relu on uint8 works on the raw domain relative to zp).
			return unaryQuantized(name, in, out, dstBuf)
		}
		res := output(dstBuf, out)
		src, dst := in.F32(), res.F32()
		parallel.ForElems(len(src), func(lo, hi int) {
			loop(dst[lo:hi], src[lo:hi])
		})
		return res, nil
	})
}

// unaryQuantized handles relu-style activations on quantized tensors: the
// comparison happens against the zero point in the raw domain.
func unaryQuantized(name string, in *tensor.Tensor, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	switch name {
	case "nn.relu":
		res := output(dstBuf, out)
		zp := int32(0)
		if in.Quant != nil {
			zp = in.Quant.ZeroPoint
		}
		for i, n := 0, in.Elems(); i < n; i++ {
			v := in.GetRaw(i)
			if v < zp {
				v = zp
			}
			setRaw(res, i, v)
		}
		return res, nil
	case "nn.dropout":
		// Inference-time identity: copy into dstBuf when supplied, else clone.
		if dstBuf == nil {
			return in.Clone(), nil
		}
		res := output(dstBuf, out)
		if err := res.CopyFrom(in); err != nil {
			return nil, err
		}
		return res, nil
	}
	return nil, fmt.Errorf("%s kernel does not support %s input", name, in.DType)
}

func setRaw(t *tensor.Tensor, i int, v int32) {
	switch t.DType {
	case tensor.Int8:
		t.I8()[i] = int8(v)
	case tensor.UInt8:
		t.U8()[i] = uint8(v)
	case tensor.Int32:
		t.I32()[i] = v
	case tensor.Float32:
		t.F32()[i] = float32(v)
	}
}

// binaryF32 registers a broadcasting float32 zip kernel.
func binaryF32(name string, f func(a, b float32) float32) {
	Register(name, func(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
		if err := wantArgs(args, 2, name); err != nil {
			return nil, err
		}
		a, b := args[0], args[1]
		res := output(dstBuf, out)
		if a.Shape.Equal(b.Shape) {
			// Fast path: element-wise, no index math.
			as, bs, dst := a.F32(), b.F32(), res.F32()
			parallel.ForElems(len(dst), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					dst[i] = f(as[i], bs[i])
				}
			})
			return res, nil
		}
		bcast := newBroadcaster(a.Shape, b.Shape, out.Shape)
		as, bs, dst := a.F32(), b.F32(), res.F32()
		parallel.ForElems(len(dst), func(lo, hi int) {
			// One index computation per innermost run; within it both
			// inputs advance by their innermost strides.
			for i := lo; i < hi; {
				ia, ib, n, sa, sb := bcast.run(i, hi)
				for end := i + n; i < end; i++ {
					dst[i] = f(as[ia], bs[ib])
					ia += sa
					ib += sb
				}
			}
		})
		return res, nil
	})
}

// broadcaster maps a flat output index to flat indices into the two
// (possibly lower-rank / size-1-extent) inputs.
type broadcaster struct {
	outShape          tensor.Shape
	aStrides, bStride []int
}

func newBroadcaster(a, b, out tensor.Shape) *broadcaster {
	rank := len(out)
	padShape := func(s tensor.Shape) tensor.Shape {
		p := make(tensor.Shape, rank)
		for i := range p {
			p[i] = 1
		}
		copy(p[rank-len(s):], s)
		return p
	}
	strides := func(s tensor.Shape) []int {
		st := make([]int, rank)
		acc := 1
		for i := rank - 1; i >= 0; i-- {
			if s[i] == 1 {
				st[i] = 0 // broadcast axis: do not advance
			} else {
				st[i] = acc
			}
			acc *= s[i]
		}
		return st
	}
	return &broadcaster{
		outShape: out,
		aStrides: strides(padShape(a)),
		bStride:  strides(padShape(b)),
	}
}

// run is index(flat) plus the rest of flat's innermost run, up to hi: n
// elements along which the inputs advance by sa and sb.
func (bc *broadcaster) run(flat, hi int) (ia, ib, n, sa, sb int) {
	ia, ib = bc.index(flat)
	last := len(bc.outShape) - 1
	if last < 0 {
		return ia, ib, 1, 0, 0
	}
	d := bc.outShape[last]
	return ia, ib, min(d-flat%d, hi-flat), bc.aStrides[last], bc.bStride[last]
}

func (bc *broadcaster) index(flat int) (ia, ib int) {
	rem := flat
	for i := len(bc.outShape) - 1; i >= 0; i-- {
		d := bc.outShape[i]
		pos := rem % d
		rem /= d
		ia += pos * bc.aStrides[i]
		ib += pos * bc.bStride[i]
	}
	return ia, ib
}

func biasAdd(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	if err := wantArgs(args, 2, "nn.bias_add"); err != nil {
		return nil, err
	}
	data, bias := args[0], args[1]
	axis := attrs.Int("axis", -1)
	if axis < 0 {
		axis += len(data.Shape)
	}
	res := output(dstBuf, out)
	c := data.Shape[axis]
	inner := 1
	for i := axis + 1; i < len(data.Shape); i++ {
		inner *= data.Shape[i]
	}
	// Channel-last data (inner == 1, every call the model zoo makes) walks
	// rows of c against the bias slice; other axes pay a divide and a modulo
	// per element.
	switch data.DType {
	case tensor.Float32:
		src, dst, bv := data.F32(), res.F32(), bias.F32()
		parallel.ForElems(len(src), func(lo, hi int) {
			if inner == 1 {
				biasAddRows(dst[lo:hi], src[lo:hi], bv[:c], lo%c)
				return
			}
			for i := lo; i < hi; i++ {
				dst[i] = src[i] + bv[(i/inner)%c]
			}
		})
	case tensor.Int32:
		// Quantized accumulator + int32 bias (the QNN conv/dense epilogue).
		src, dst, bv := data.I32(), res.I32(), bias.I32()
		if inner == 1 {
			biasAddRows(dst, src, bv[:c], 0)
			break
		}
		for i := range src {
			dst[i] = src[i] + bv[(i/inner)%c]
		}
	default:
		return nil, fmt.Errorf("nn.bias_add on %s", data.DType)
	}
	return res, nil
}

// biasAddRows adds bias to consecutive rows of len(bias) channels; src and
// dst start at channel ch of a row (a parallel chunk need not start on a row
// boundary) and may end inside one.
func biasAddRows[T float32 | int32](dst, src, bias []T, ch int) {
	for len(src) > 0 {
		n := min(len(bias)-ch, len(src))
		d := dst[:n]
		for j, b := range bias[ch : ch+n] {
			d[j] = src[j] + b
		}
		src, dst, ch = src[n:], dst[n:], 0
	}
}

func batchNorm(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	if err := wantArgs(args, 5, "nn.batch_norm"); err != nil {
		return nil, err
	}
	data, gamma, beta, mean, variance := args[0], args[1], args[2], args[3], args[4]
	eps := float32(attrs.Float("epsilon", 1e-5))
	res := output(dstBuf, out)
	c := data.Shape[len(data.Shape)-1]
	src, dst := data.F32(), res.F32()
	g, bt, mn, vr := gamma.F32(), beta.F32(), mean.F32(), variance.F32()
	// Precompute per-channel scale/shift: y = (x-m)/sqrt(v+eps)*g + b.
	scale := make([]float32, c)
	shift := make([]float32, c)
	for ch := 0; ch < c; ch++ {
		s := g[ch] / float32(math.Sqrt(float64(vr[ch]+eps)))
		scale[ch] = s
		shift[ch] = bt[ch] - mn[ch]*s
	}
	parallel.ForElems(len(src), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ch := i % c
			dst[i] = src[i]*scale[ch] + shift[ch]
		}
	})
	return res, nil
}

func softmax(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	if err := wantArgs(args, 1, "nn.softmax"); err != nil {
		return nil, err
	}
	data := args[0]
	res := output(dstBuf, out)
	rank := len(data.Shape)
	axisLen := data.Shape[rank-1] // axis=-1 (the only form frontends emit)
	rows := data.Elems() / axisLen
	src, dst := data.F32(), res.F32()
	parallel.For(rows, func(r int) {
		base := r * axisLen
		maxV := src[base]
		for i := 1; i < axisLen; i++ {
			if src[base+i] > maxV {
				maxV = src[base+i]
			}
		}
		var sum float64
		for i := 0; i < axisLen; i++ {
			e := math.Exp(float64(src[base+i] - maxV))
			dst[base+i] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for i := 0; i < axisLen; i++ {
			dst[base+i] *= inv
		}
	})
	return res, nil
}

func clipKernel(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	if err := wantArgs(args, 1, "clip"); err != nil {
		return nil, err
	}
	in := args[0]
	lo := attrs.Float("a_min", math.Inf(-1))
	hi := attrs.Float("a_max", math.Inf(1))
	res := output(dstBuf, out)
	if in.DType == tensor.Float32 {
		src, dst := in.F32(), res.F32()
		cl := newClampF32(float32(lo), float32(hi))
		parallel.ForElems(len(src), func(l, h int) {
			cl.rows(dst[l:h], src[l:h])
		})
		return res, nil
	}
	// Quantized clip (relu6 after requantize): clamp in the real domain via
	// the tensor's quant params.
	for i, n := 0, in.Elems(); i < n; i++ {
		v := in.GetF(i)
		if v < lo {
			v = lo
		}
		if v > hi {
			v = hi
		}
		res.SetF(i, v)
	}
	return res, nil
}

// clampF32 is float clip: v < lo becomes lo, then v > hi becomes hi, so NaN
// and −0 pass through unchanged (relu is the clamp to [0, +Inf]: not
// max(v, 0)). rows applies it as two selects on the bits, which the compiler
// lowers to CMOV — no branch to mispredict on random-sign activations.
// loBits is hi's bits when lo > hi: the reference clamps such a v to lo and
// then lo to hi.
type clampF32 struct {
	lo, hi         float32
	loBits, hiBits uint32
}

func newClampF32(lo, hi float32) clampF32 {
	c := clampF32{lo: lo, hi: hi, loBits: math.Float32bits(lo), hiBits: math.Float32bits(hi)}
	if lo > hi {
		c.loBits = c.hiBits
	}
	return c
}

// reluClamp is nn.relu's clamp.
var reluClamp = newClampF32(0, float32(math.Inf(1)))

// rows clamps src into dst (len(dst) >= len(src)); dst may be src.
//
//np:hotpath
func (c *clampF32) rows(dst, src []float32) {
	lo, hi, loBits, hiBits := c.lo, c.hi, c.loBits, c.hiBits
	dst = dst[:len(src)]
	for i, v := range src {
		u := math.Float32bits(v)
		if v < lo {
			u = loBits
		}
		if v > hi {
			u = hiBits
		}
		dst[i] = math.Float32frombits(u)
	}
}

func lrn(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	if err := wantArgs(args, 1, "nn.lrn"); err != nil {
		return nil, err
	}
	in := args[0]
	size := attrs.Int("size", 5)
	alpha := attrs.Float("alpha", 1e-4)
	beta := attrs.Float("beta", 0.75)
	bias := attrs.Float("bias", 2)
	res := output(dstBuf, out)
	c := in.Shape[len(in.Shape)-1]
	rows := in.Elems() / c
	src, dst := in.F32(), res.F32()
	half := size / 2
	parallel.For(rows, func(r int) {
		base := r * c
		for ch := 0; ch < c; ch++ {
			var sq float64
			for j := ch - half; j <= ch+half; j++ {
				if j < 0 || j >= c {
					continue
				}
				v := float64(src[base+j])
				sq += v * v
			}
			dst[base+ch] = src[base+ch] / float32(math.Pow(bias+alpha*sq, beta))
		}
	})
	return res, nil
}

func leakyReLU(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	if err := wantArgs(args, 1, "nn.leaky_relu"); err != nil {
		return nil, err
	}
	alpha := float32(attrs.Float("alpha", 0.01))
	in := args[0]
	res := output(dstBuf, out)
	src, dst := in.F32(), res.F32()
	parallel.ForElems(len(src), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := src[i]
			if v < 0 {
				v *= alpha
			}
			dst[i] = v
		}
	})
	return res, nil
}

func init() {
	mapF32("nn.relu", reluClamp.rows)
	unaryF32("sigmoid", func(v float32) float32 {
		return float32(1 / (1 + math.Exp(-float64(v))))
	})
	unaryF32("tanh", func(v float32) float32 { return float32(math.Tanh(float64(v))) })
	unaryF32("exp", func(v float32) float32 { return float32(math.Exp(float64(v))) })
	unaryF32("sqrt", func(v float32) float32 { return float32(math.Sqrt(float64(v))) })
	unaryF32("nn.dropout", func(v float32) float32 { return v }) // inference: identity

	binaryF32("add", func(a, b float32) float32 { return a + b })
	binaryF32("subtract", func(a, b float32) float32 { return a - b })
	binaryF32("multiply", func(a, b float32) float32 { return a * b })
	binaryF32("divide", func(a, b float32) float32 { return a / b })
	binaryF32("maximum", func(a, b float32) float32 {
		if a > b {
			return a
		}
		return b
	})
	binaryF32("minimum", func(a, b float32) float32 {
		if a < b {
			return a
		}
		return b
	})

	Register("nn.bias_add", biasAdd)
	Register("nn.batch_norm", batchNorm)
	Register("nn.softmax", softmax)
	Register("clip", clipKernel)
	Register("nn.lrn", lrn)
	Register("nn.leaky_relu", leakyReLU)
}
