package topi

import (
	"fmt"
	"math"

	"repro/internal/relay"
	"repro/internal/tensor"
)

// Data-movement kernels: reshape/flatten/squeeze/expand_dims are views or
// copies with unchanged flat layout; transpose/concat/pad/slice/upsampling
// permute or gather storage.

// copyWithShape returns a copy of in carrying the output type's shape and
// quant params (flat layout unchanged).
func copyWithShape(in *tensor.Tensor, out *relay.TensorType) *tensor.Tensor {
	res := in.Clone().Reshape(out.Shape)
	if out.Quant != nil {
		q := *out.Quant
		res.Quant = &q
	}
	return res
}

func reshapeKernel(name string) Kernel {
	return func(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
		if err := wantArgs(args, 1, name); err != nil {
			return nil, err
		}
		if dstBuf == nil {
			return copyWithShape(args[0], out), nil
		}
		res := output(dstBuf, out)
		if err := res.CopyFrom(args[0]); err != nil {
			return nil, err
		}
		return res, nil
	}
}

func transposeKernel(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	if err := wantArgs(args, 1, "transpose"); err != nil {
		return nil, err
	}
	in := args[0]
	axes := attrs.Ints("axes", nil)
	rank := len(in.Shape)
	if axes == nil {
		axes = make([]int, rank)
		for i := range axes {
			axes[i] = rank - 1 - i
		}
	}
	res := output(dstBuf, out)
	// Strides of the input.
	inStrides := make([]int, rank)
	acc := 1
	for i := rank - 1; i >= 0; i-- {
		inStrides[i] = acc
		acc *= in.Shape[i]
	}
	// For each output flat index, decompose in output shape and gather.
	n := res.Elems()
	for flat := 0; flat < n; flat++ {
		rem := flat
		src := 0
		for i := rank - 1; i >= 0; i-- {
			pos := rem % out.Shape[i]
			rem /= out.Shape[i]
			src += pos * inStrides[axes[i]]
		}
		setRaw(res, flat, 0)
		copyElem(res, flat, in, src)
	}
	return res, nil
}

// copyElem copies one element preserving the raw storage value.
func copyElem(dst *tensor.Tensor, di int, src *tensor.Tensor, si int) {
	switch src.DType {
	case tensor.Float32:
		dst.F32()[di] = src.F32()[si]
	default:
		setRaw(dst, di, src.GetRaw(si))
	}
}

func concatenateKernel(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	return concatenate(args, attrs, out, dstBuf, nil)
}

// concatenate writes args concatenated along the axis attribute into the
// output. With q non-nil every field quantized otherwise than q is
// requantized to it on the way (qnn.concatenate); a field without
// quantization parameters is taken to share q.
func concatenate(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor, q *tensor.QuantParams) (*tensor.Tensor, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("concatenate of no tensors")
	}
	axis := attrs.Int("axis", -1)
	rank := len(args[0].Shape)
	if axis < 0 {
		axis += rank
	}
	res := output(dstBuf, out)
	// outer = product of dims before axis; inner = product after.
	outer := 1
	for i := 0; i < axis; i++ {
		outer *= out.Shape[i]
	}
	inner := 1
	for i := axis + 1; i < rank; i++ {
		inner *= out.Shape[i]
	}
	// Each input contributes one contiguous run of ax·inner elements per
	// outer index.
	axisOff := 0
	for _, t := range args {
		requant := q != nil && t.Quant != nil && (t.Quant.Scale != q.Scale || t.Quant.ZeroPoint != q.ZeroPoint)
		var ratio float64
		if requant {
			ratio = t.Quant.Scale / q.Scale
		}
		run := t.Shape[axis] * inner
		for o := 0; o < outer; o++ {
			si, di := o*run, (o*out.Shape[axis]+axisOff)*inner
			switch {
			case requant:
				for i := 0; i < run; i++ {
					setRaw(res, di+i, clampToDType(requantize(t.GetRaw(si+i), ratio, t.Quant.ZeroPoint, q.ZeroPoint), out.DType))
				}
			case t.DType == res.DType:
				copyRun(res, di, t, si, run)
			default:
				for i := 0; i < run; i++ {
					copyElem(res, di+i, t, si+i)
				}
			}
		}
		axisOff += t.Shape[axis]
	}
	return res, nil
}

// copyRun copies src[si:si+n] to dst[di:di+n], two tensors of one dtype.
func copyRun(dst *tensor.Tensor, di int, src *tensor.Tensor, si, n int) {
	switch src.DType {
	case tensor.Float32:
		copy(dst.F32()[di:di+n], src.F32()[si:si+n])
	case tensor.Int8:
		copy(dst.I8()[di:di+n], src.I8()[si:si+n])
	case tensor.UInt8:
		copy(dst.U8()[di:di+n], src.U8()[si:si+n])
	case tensor.Int32:
		copy(dst.I32()[di:di+n], src.I32()[si:si+n])
	}
}

func padKernel(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	if err := wantArgs(args, 1, "nn.pad"); err != nil {
		return nil, err
	}
	in := args[0]
	pad := attrs.Pad4("pad_width")
	padValue := attrs.Float("pad_value", 0)
	res := output(dstBuf, out)
	if padValue != 0 {
		res.Fill(padValue)
	} else if in.Quant != nil {
		// Quantized zero is the zero point, not raw 0.
		for i, n := 0, res.Elems(); i < n; i++ {
			setRaw(res, i, in.Quant.ZeroPoint)
		}
	} else if dstBuf != nil {
		// The algorithm assumes zero-initialized padding; a reused arena
		// buffer carries stale data.
		res.Zero()
	}
	n, h, w, c := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	ow := out.Shape[2]
	for b := 0; b < n; b++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				srcBase := ((b*h+y)*w + x) * c
				dstBase := ((b*out.Shape[1]+y+pad[0])*ow + x + pad[1]) * c
				for ch := 0; ch < c; ch++ {
					copyElem(res, dstBase+ch, in, srcBase+ch)
				}
			}
		}
	}
	return res, nil
}

func upsamplingKernel(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	if err := wantArgs(args, 1, "nn.upsampling"); err != nil {
		return nil, err
	}
	in := args[0]
	scale := attrs.Int("scale", 2)
	res := output(dstBuf, out)
	n, h, w, c := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	oh, ow := out.Shape[1], out.Shape[2]
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			iy := oy / scale
			if iy >= h {
				iy = h - 1
			}
			for ox := 0; ox < ow; ox++ {
				ix := ox / scale
				if ix >= w {
					ix = w - 1
				}
				srcBase := ((b*h+iy)*w + ix) * c
				dstBase := ((b*oh+oy)*ow + ox) * c
				for ch := 0; ch < c; ch++ {
					copyElem(res, dstBase+ch, in, srcBase+ch)
				}
			}
		}
	}
	return res, nil
}

func stridedSliceKernel(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	if err := wantArgs(args, 1, "strided_slice"); err != nil {
		return nil, err
	}
	in := args[0]
	begin := attrs.Ints("begin", nil)
	rank := len(in.Shape)
	b := make([]int, rank)
	for i := range b {
		b[i] = begin[i]
		if b[i] < 0 {
			b[i] += in.Shape[i]
		}
	}
	inStrides := make([]int, rank)
	acc := 1
	for i := rank - 1; i >= 0; i-- {
		inStrides[i] = acc
		acc *= in.Shape[i]
	}
	res := output(dstBuf, out)
	n := res.Elems()
	for flat := 0; flat < n; flat++ {
		rem := flat
		src := 0
		for i := rank - 1; i >= 0; i-- {
			pos := rem % out.Shape[i]
			rem /= out.Shape[i]
			src += (pos + b[i]) * inStrides[i]
		}
		copyElem(res, flat, in, src)
	}
	return res, nil
}

func yoloOutputKernel(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	if err := wantArgs(args, 1, "vision.yolo_output"); err != nil {
		return nil, err
	}
	in := args[0]
	anchors := attrs.Int("anchors", 3)
	classes := attrs.Int("classes", 80)
	per := 5 + classes
	var res *tensor.Tensor
	if dstBuf == nil {
		res = in.Clone()
	} else {
		res = output(dstBuf, out)
		if err := res.CopyFrom(in); err != nil {
			return nil, err
		}
	}
	src := res.F32()
	cells := in.Elems() / (anchors * per)
	sigmoid := func(v float32) float32 {
		return float32(1 / (1 + math.Exp(-float64(v))))
	}
	for cell := 0; cell < cells; cell++ {
		for a := 0; a < anchors; a++ {
			base := (cell*anchors + a) * per
			// x, y, objectness and class scores pass through sigmoid;
			// w, h (indices 2,3) stay raw (exp applied at decode time).
			src[base+0] = sigmoid(src[base+0])
			src[base+1] = sigmoid(src[base+1])
			src[base+4] = sigmoid(src[base+4])
			for cl := 0; cl < classes; cl++ {
				src[base+5+cl] = sigmoid(src[base+5+cl])
			}
		}
	}
	return res, nil
}

func init() {
	Register("reshape", reshapeKernel("reshape"))
	Register("nn.batch_flatten", reshapeKernel("nn.batch_flatten"))
	Register("squeeze", reshapeKernel("squeeze"))
	Register("expand_dims", reshapeKernel("expand_dims"))
	Register("transpose", transposeKernel)
	Register("concatenate", concatenateKernel)
	Register("nn.pad", padKernel)
	Register("nn.upsampling", upsamplingKernel)
	Register("strided_slice", stridedSliceKernel)
	Register("vision.yolo_output", yoloOutputKernel)
}
