package topi

import (
	"math"

	"repro/internal/parallel"
	"repro/internal/relay"
	"repro/internal/tensor"
)

// Pooling kernels. Max pooling works directly in the storage domain (order
// is preserved by affine quantization), so one implementation covers float
// and quantized tensors. Average pooling divides in the accumulator domain
// with round-to-nearest for quantized inputs; padding is excluded from the
// divisor (count_exclude_pad, the tflite/NNAPI convention).

type poolParams struct {
	kh, kw, sh, sw int
	pad            [4]int
}

// work is the split estimate of a pool with out output elements: one per
// window tap, the cost model's count (soc.MACs).
func (p *poolParams) work(out int) int64 { return int64(out) * int64(p.kh*p.kw) }

func poolParamsOf(attrs relay.Attrs) poolParams {
	var p poolParams
	p.kh, p.kw = attrs.IntPair("pool_size", 1)
	p.sh, p.sw = attrs.IntPair("strides", 1)
	p.pad = attrs.Pad4("padding")
	return p
}

func maxPool2D(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	if err := wantArgs(args, 1, "nn.max_pool2d"); err != nil {
		return nil, err
	}
	in := args[0]
	p := poolParamsOf(attrs)
	res := output(dstBuf, out)
	n, h, w, c := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	oh, ow := out.Shape[1], out.Shape[2]

	if in.DType == tensor.Float32 {
		maxPoolRegion.Run(n*oh, p.work(res.Elems()), parallel.ChunkOpts{},
			maxPoolArgs{res.F32(), in.F32(), p, h, w, c, oh, ow})
		return res, nil
	}
	// Quantized: max over the raw domain.
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for ch := 0; ch < c; ch++ {
					best := int32(math.MinInt32)
					for ky := 0; ky < p.kh; ky++ {
						iy := oy*p.sh - p.pad[0] + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < p.kw; kx++ {
							ix := ox*p.sw - p.pad[1] + kx
							if ix < 0 || ix >= w {
								continue
							}
							v := in.GetRaw(((b*h+iy)*w+ix)*c + ch)
							if v > best {
								best = v
							}
						}
					}
					setRaw(res, ((b*oh+oy)*ow+ox)*c+ch, best)
				}
			}
		}
	}
	return res, nil
}

var maxPoolRegion = parallel.NewRegion(maxPoolArgs.run)

// maxPoolArgs is the float max-pool's chunk: output rows [lo, hi) of ow
// pixels.
type maxPoolArgs struct {
	dst, src        []float32
	p               poolParams
	h, w, c, oh, ow int
}

func (a maxPoolArgs) run(lo, hi int) {
	n := a.ow * a.c
	for job := lo; job < hi; job++ {
		maxPoolRowF32(a.dst[job*n:(job+1)*n], a.src, &a.p, job, a.h, a.w, a.c, a.oh)
	}
}

// maxPoolRowF32 computes output row job (= b·oh + oy) of the float max-pool
// into row, ow pixels of c channels. Each pixel starts at −Inf and takes the
// taps of its window in (ky, kx) order, one contiguous channel vector at a
// time, through maxInto's select of v > best — the visit order and the
// comparison of a loop per channel, so NaN never wins and of tied ±0 the
// first seen stays.
//
//np:hotpath
func maxPoolRowF32(row, src []float32, p *poolParams, job, h, w, c, oh int) {
	b, oy := job/oh, job%oh
	negInf := float32(math.Inf(-1))
	for ox := 0; (ox+1)*c <= len(row); ox++ {
		best := row[ox*c : (ox+1)*c]
		for i := range best {
			best[i] = negInf
		}
		for ky := 0; ky < p.kh; ky++ {
			iy := oy*p.sh - p.pad[0] + ky
			if iy < 0 || iy >= h {
				continue
			}
			for kx := 0; kx < p.kw; kx++ {
				ix := ox*p.sw - p.pad[1] + kx
				if ix < 0 || ix >= w {
					continue
				}
				maxInto(best, src[((b*h+iy)*w+ix)*c:])
			}
		}
	}
}

// maxInto sets best[i] to v[i] where v[i] > best[i], as a select on the
// bits (CMOV) rather than a branch on random data.
func maxInto(best, v []float32) {
	v = v[:len(best)]
	for i, x := range v {
		b := best[i]
		u, ux := math.Float32bits(b), math.Float32bits(x)
		if x > b {
			u = ux
		}
		best[i] = math.Float32frombits(u)
	}
}

func avgPool2D(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	if err := wantArgs(args, 1, "nn.avg_pool2d"); err != nil {
		return nil, err
	}
	in := args[0]
	p := poolParamsOf(attrs)
	res := output(dstBuf, out)
	n, h, w, c := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	oh, ow := out.Shape[1], out.Shape[2]
	avgPoolRegion.Run(n*oh, p.work(res.Elems()), parallel.ChunkOpts{}, avgPoolArgs{in, res, p, h, w, c, oh, ow})
	return res, nil
}

var avgPoolRegion = parallel.NewRegion(avgPoolArgs.run)

// avgPoolArgs is the average pool's chunk: output rows [lo, hi).
type avgPoolArgs struct {
	in, res         *tensor.Tensor
	p               poolParams
	h, w, c, oh, ow int
}

func (a avgPoolArgs) run(lo, hi int) {
	in, res, p := a.in, a.res, &a.p
	h, w, c, oh, ow := a.h, a.w, a.c, a.oh, a.ow
	isFloat := in.DType == tensor.Float32
	for job := lo; job < hi; job++ {
		b, oy := job/oh, job%oh
		for ox := 0; ox < ow; ox++ {
			for ch := 0; ch < c; ch++ {
				var accF float64
				var accI int64
				count := 0
				for ky := 0; ky < p.kh; ky++ {
					iy := oy*p.sh - p.pad[0] + ky
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < p.kw; kx++ {
						ix := ox*p.sw - p.pad[1] + kx
						if ix < 0 || ix >= w {
							continue
						}
						idx := ((b*h+iy)*w+ix)*c + ch
						if isFloat {
							accF += float64(in.F32()[idx])
						} else {
							accI += int64(in.GetRaw(idx))
						}
						count++
					}
				}
				oidx := ((b*oh+oy)*ow+ox)*c + ch
				if count == 0 {
					setRaw(res, oidx, 0)
					continue
				}
				if isFloat {
					res.F32()[oidx] = float32(accF / float64(count))
				} else {
					// Round-half-away in the raw domain.
					v := accI
					if v >= 0 {
						v = (v + int64(count)/2) / int64(count)
					} else {
						v = (v - int64(count)/2) / int64(count)
					}
					setRaw(res, oidx, int32(v))
				}
			}
		}
	}
}

func globalAvgPool2D(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	if err := wantArgs(args, 1, "nn.global_avg_pool2d"); err != nil {
		return nil, err
	}
	in := args[0]
	res := output(dstBuf, out)
	n, h, w, c := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	globalAvgPoolRegion.Run(n*c, int64(in.Elems()), parallel.ChunkOpts{}, globalAvgPoolArgs{in, res, h, w, c})
	return res, nil
}

var globalAvgPoolRegion = parallel.NewRegion(globalAvgPoolArgs.run)

// globalAvgPoolArgs is the global average pool's chunk: (batch, channel)
// outputs [lo, hi).
type globalAvgPoolArgs struct {
	in, res *tensor.Tensor
	h, w, c int
}

func (a globalAvgPoolArgs) run(lo, hi int) {
	in, h, w, c := a.in, a.h, a.w, a.c
	area := h * w
	for job := lo; job < hi; job++ {
		b, ch := job/c, job%c
		if in.DType == tensor.Float32 {
			var acc float64
			src := in.F32()
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					acc += float64(src[((b*h+y)*w+x)*c+ch])
				}
			}
			a.res.F32()[b*c+ch] = float32(acc / float64(area))
			continue
		}
		var acc int64
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				acc += int64(in.GetRaw(((b*h+y)*w+x)*c + ch))
			}
		}
		v := acc
		if v >= 0 {
			v = (v + int64(area)/2) / int64(area)
		} else {
			v = (v - int64(area)/2) / int64(area)
		}
		setRaw(a.res, b*c+ch, int32(v))
	}
}

func meanKernel(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	if err := wantArgs(args, 1, "mean"); err != nil {
		return nil, err
	}
	in := args[0]
	rank := len(in.Shape)
	// idx is the multi-index of the input element at hand, keep[i] whether
	// axis i survives the reduction: stack arrays at any realistic rank.
	var idxBuf [8]int
	var keepBuf [8]bool
	idx, keep := idxBuf[:], keepBuf[:]
	if rank > len(idxBuf) {
		idx, keep = make([]int, rank), make([]bool, rank)
	}
	idx, keep = idx[:rank], keep[:rank]
	// Without an axis attribute every axis is reduced.
	axes := attrs.Ints("axis", nil)
	for i := range keep {
		keep[i] = axes != nil
	}
	for _, ax := range axes {
		if ax < 0 {
			ax += rank
		}
		keep[ax] = false
	}
	res := output(dstBuf, out)
	sumsP := scratchF64.get(res.Elems())
	defer scratchF64.put(sumsP)
	sums := *sumsP
	clear(sums)
	// Map every input index to its output bucket by dropping reduced axes.
	// Every bucket receives the same number of elements, the product of the
	// reduced extents.
	src := in.F32()
	count := len(src) / max(len(sums), 1)
	for flat := range src {
		rem := flat
		for i := rank - 1; i >= 0; i-- {
			idx[i] = rem % in.Shape[i]
			rem /= in.Shape[i]
		}
		// Flat layout is unchanged by keepdims' interleaved 1-extents, so one
		// bucket computation serves both forms.
		o := 0
		for i, d := range in.Shape {
			if keep[i] {
				o = o*d + idx[i]
			}
		}
		sums[o] += float64(src[flat])
	}
	dres := res.F32()
	for i := range dres {
		if count > 0 {
			dres[i] = float32(sums[i] / float64(count))
		} else {
			dres[i] = 0 // never reached for valid shapes; keeps reused buffers clean
		}
	}
	return res, nil
}

func init() {
	Register("nn.max_pool2d", maxPool2D)
	Register("nn.avg_pool2d", avgPool2D)
	Register("nn.global_avg_pool2d", globalAvgPool2D)
	Register("mean", meanKernel)
}
