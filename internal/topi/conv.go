package topi

import (
	"repro/internal/parallel"
	"repro/internal/relay"
	"repro/internal/tensor"
)

// One convolution and one dense kernel per element type. The float and the
// quantized convolution run the same two strategies over the same loops —
// the direct row (convDirectRow) and the im2col patch pack (packCol) are one
// generic body over float32 | int32, the quantized side feeding them
// operands widened once to (raw − zero point) — and differ only in the GEMM
// tile they call. Each launch may carry an epilogue applied to each output
// row as soon as it is reduced (fused.go): qnn.conv2d_fused and
// qnn.dense_fused are qnn.conv2d and qnn.dense with bias → requantize →
// activation, and nn.conv2d and nn.dense take an optional bias and
// fused_activation, the Neuron runtime's float operations.

// conv2dParams gathers the attribute set shared by float and quantized
// convolution.
type conv2dParams struct {
	sh, sw, dh, dw, groups int
	pad                    [4]int // top, left, bottom, right
}

func convParams(attrs relay.Attrs) conv2dParams {
	p := conv2dParams{groups: attrs.Int("groups", 1)}
	p.sh, p.sw = attrs.IntPair("strides", 1)
	p.dh, p.dw = attrs.IntPair("dilation", 1)
	p.pad = attrs.Pad4("padding")
	return p
}

// convGeom is everything a convolution's row loops read: NHWC data h×w×c,
// OHWI filter oc×kh×kw×icg, oh output rows of ow pixels per batch, and the
// attributes. It is sixteen words and its address is never taken where it
// is built, so the row-loop closures capture it by value instead of moving
// it to the heap; each worker copies it onto its own stack (g := g) and the
// row functions take a pointer to that copy, which keeps a freshly spawned
// worker's frames inside its starting stack.
type convGeom struct {
	h, w, c, oc, kh, kw, icg, oh, ow   int
	sh, sw, dh, dw, padT, padL, groups int
}

func newConvGeom(p conv2dParams, data, weight, out tensor.Shape) convGeom {
	return convGeom{
		h: data[1], w: data[2], c: data[3],
		oc: weight[0], kh: weight[1], kw: weight[2], icg: weight[3],
		oh: out[1], ow: out[2],
		sh: p.sh, sw: p.sw, dh: p.dh, dw: p.dw, padT: p.pad[0], padL: p.pad[1], groups: p.groups,
	}
}

func (g *convGeom) ocg() int    { return g.oc / g.groups }     // output channels per group
func (g *convGeom) k() int      { return g.kh * g.kw * g.icg } // patch length
func (g *convGeom) rowLen() int { return g.ow * g.oc }         // cells of one output row

// conv2DF32 is the float32 convolution: NHWC data, OHWI weight. It also
// takes the Neuron runtime's form of a CONV_2D or DEPTHWISE_CONV_2D
// operation — an absorbed bias as args[2] and a fused_activation attribute —
// and applies them as the row epilogue of the same launch (epilogueF32).
func conv2DF32(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	ep, err := newEpilogueF32("nn.conv2d", args, attrs, out)
	if err != nil {
		return nil, err
	}
	data, weight := args[0], args[1]
	p := convParams(attrs)
	cfg := tunedConfig(taskKey("nn.conv2d", data.Shape, weight.Shape, data.DType, p))
	return convF32(data, weight, p, out, dstBuf, cfg, convUseIm2col(cfg, out.Shape, weight.Shape, p.groups), ep), nil
}

// convF32 runs the float32 convolution by one strategy, parallel over
// (batch × output row) — each worker owns disjoint output rows. The direct
// strategy reduces every cell in place; im2col packs one output row's
// patches per group straight into GEMM panels (packCol) and multiplies them
// against the cached weight panels. Either way ep runs over each output row
// as soon as it is reduced. Nested GEMM tile parallelism degrades to serial
// because this loop already holds the worker-budget tokens; on a serial
// answer the row loop is a plain call and the launch allocates nothing.
func convF32(data, weight *tensor.Tensor, p conv2dParams, out *relay.TensorType, dstBuf *tensor.Tensor, cfg *KernelConfig, im2col bool, ep epilogueF32) *tensor.Tensor {
	res := output(dstBuf, out)
	r := convRowsF32{
		g:   newConvGeom(p, data.Shape, weight.Shape, out.Shape),
		din: data.F32(), wt: weight.F32(), dout: res.F32(),
		cfg: cfg, ep: ep,
	}
	if im2col {
		r.pw = packedConvWeightF32(weight, r.g.groups)
	}
	rows := data.Shape[0] * r.g.oh
	if workers := parallel.AcquireWorkers(rows, cfg.chunkOpts()); workers > 1 {
		parallel.RunChunks(rows, workers, r.run)
	} else {
		r.run(0, rows)
	}
	return res
}

// convRowsF32 is one float convolution launch's row loop. It is passed by
// value, so each worker runs on its own copy — geometry included — on its
// own stack; pw is nil on the direct strategy.
type convRowsF32 struct {
	g             convGeom
	din, wt, dout []float32
	pw            *packedWeight[float32]
	cfg           *KernelConfig
	ep            epilogueF32
}

// run computes output rows [lo, hi).
func (r convRowsF32) run(lo, hi int) {
	g := &r.g
	var colP *[]float32
	if r.pw != nil {
		colP = getScratchF32(colLen(g))
		defer putScratchF32(colP)
	}
	for job := lo; job < hi; job++ {
		row := r.dout[job*g.rowLen() : (job+1)*g.rowLen()]
		if r.pw == nil {
			convDirectRow(row, r.din, r.wt, g, job)
		} else {
			for grp := 0; grp < g.groups; grp++ {
				packCol(*colP, r.din, g, job, grp)
				gemmPackedF32(g.ow, g.ocg(), g.k(), *colP, r.pw.group(grp), row[grp*g.ocg():], g.oc, r.cfg)
			}
		}
		r.ep.apply(row)
	}
}

// convDirectRow computes output row job (= b·oh + oy) of the direct
// convolution into row[:ow·oc]: each cell one accumulator summing ky, kx, ic
// ascending, taps that fall in the padding skipped. Quantized operands
// arrive widened to (raw − zero point), so a skipped tap is exactly the QNN
// convention of padding with the zero point, which contributes
// (zp − zp) = 0.
func convDirectRow[T float32 | int32](row, din, wt []T, g *convGeom, job int) {
	h, w, c := g.h, g.w, g.c
	oc, kh, kw, icg := g.oc, g.kh, g.kw, g.icg
	ocg := g.ocg()
	b, oy := job/g.oh, job%g.oh
	for ox := 0; ox < g.ow; ox++ {
		outBase := ox * oc
		for grp := 0; grp < g.groups; grp++ {
			for f := 0; f < ocg; f++ {
				o := grp*ocg + f
				var acc T
				for ky := 0; ky < kh; ky++ {
					iy := oy*g.sh - g.padT + ky*g.dh
					if iy < 0 || iy >= h {
						continue
					}
					x := din[(b*h+iy)*w*c+grp*icg:] // input row iy, this group's channels
					k := wt[(o*kh+ky)*kw*icg:]      // filter row ky of output channel o
					for kx := 0; kx < kw; kx++ {
						ix := ox*g.sw - g.padL + kx*g.dw
						if ix < 0 || ix >= w {
							continue
						}
						xi, ki := ix*c, kx*icg
						for ic := 0; ic < icg; ic++ {
							acc += x[xi+ic] * k[ki+ic]
						}
					}
				}
				row[outBase+o] = acc
			}
		}
	}
}

// convUseIm2col is the strategy decision of every convolution launch, float,
// quantized or fused: an explicit tuned ConvStrategy wins, ConvAuto (or no
// record) asks im2colPays. out is the NHWC output shape, weight the OHWI
// filter shape. Both strategies are pinned bit-identical, so the switch is a
// pure performance decision.
func convUseIm2col(cfg *KernelConfig, out, weight tensor.Shape, groups int) bool {
	if cfg != nil {
		switch cfg.ConvStrategy {
		case ConvIm2col:
			return true
		case ConvDirect:
			return false
		}
	}
	return im2colPays(out, weight, groups)
}

// qnnConv2D is the quantized convolution producing an int32 accumulator:
// acc = Σ (q_in - zp_in) * (q_w - zp_w). The requantize kernel narrows the
// accumulator back to 8 bits.
func qnnConv2D(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	if err := wantArgs(args, 2, "qnn.conv2d"); err != nil {
		return nil, err
	}
	return quantizedConv("qnn.conv2d", args, attrs, out, dstBuf, nil)
}

// quantizedConv launches qnn.conv2d, or with an epilogue qnn.conv2d_fused:
// one task key, one tuned record and one strategy rule for both.
func quantizedConv(op string, args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor, ep *epilogue) (*tensor.Tensor, error) {
	data, weight := args[0], args[1]
	p := convParams(attrs)
	cfg := tunedConfig(taskKey(op, data.Shape, weight.Shape, data.DType, p))
	zpIn := int32(attrs.Int("input_zero_point", 0))
	zpK := int32(attrs.Int("kernel_zero_point", 0))
	return convQnn(data, weight, p, zpIn, zpK, out, dstBuf, cfg, convUseIm2col(cfg, out.Shape, weight.Shape, p.groups), ep)
}

// convQnn runs the quantized convolution by one strategy. The data tensor is
// widened once into pooled (raw − zp_in) scratch; the weight comes from the
// cached (raw − zp_w) panels (im2col) or is widened the same way (direct).
// Integer accumulation is exact, so both strategies give the same bits. With
// ep == nil (qnn.conv2d) the int32 accumulators are the output; otherwise
// each output row is reduced into scratch and narrowed through ep.
func convQnn(data, weight *tensor.Tensor, p conv2dParams, zpIn, zpK int32, out *relay.TensorType, dstBuf *tensor.Tensor, cfg *KernelConfig, im2col bool, ep *epilogue) (*tensor.Tensor, error) {
	res := output(dstBuf, out)
	g := newConvGeom(p, data.Shape, weight.Shape, out.Shape)
	dinP := getScratchI32(data.Elems())
	defer putScratchI32(dinP)
	din := *dinP
	if err := rawMinusZp(din, data, zpIn); err != nil {
		return nil, err
	}
	var pw *packedWeight[int32]
	var wt []int32
	if im2col {
		var err error
		if pw, err = packedConvWeightI32(weight, g.groups, zpK); err != nil {
			return nil, err
		}
	} else {
		wtP := getScratchI32(weight.Elems())
		defer putScratchI32(wtP)
		wt = *wtP
		if err := rawMinusZp(wt, weight, zpK); err != nil {
			return nil, err
		}
	}
	var dout []int32
	if ep == nil {
		dout = res.I32()
	}
	parallel.ForChunkedOpts(data.Shape[0]*g.oh, cfg.chunkOpts(), func(lo, hi int) {
		g := g
		var colP, accP *[]int32
		if im2col {
			colP = getScratchI32(colLen(&g))
			defer putScratchI32(colP)
		}
		if ep != nil {
			accP = getScratchI32(g.rowLen())
			defer putScratchI32(accP)
		}
		for job := lo; job < hi; job++ {
			var row []int32
			if ep == nil {
				row = dout[job*g.rowLen():]
			} else {
				row = *accP
			}
			if !im2col {
				convDirectRow(row, din, wt, &g, job)
			} else {
				for grp := 0; grp < g.groups; grp++ {
					packCol(*colP, din, &g, job, grp)
					gemmPackedI32(g.ow, g.ocg(), g.k(), *colP, pw.group(grp),
						row[grp*g.ocg():], g.oc, cfg)
				}
			}
			if ep != nil {
				ep.apply(res, row, job*g.rowLen())
			}
		}
	})
	return res, nil
}

// denseF32 is nn.dense, and like conv2DF32 it also takes the Neuron
// FULLY_CONNECTED form: a bias as args[2] and fused_activation, applied by
// the epilogue once the GEMM has reduced the rows.
func denseF32(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	ep, err := newEpilogueF32("nn.dense", args, attrs, out)
	if err != nil {
		return nil, err
	}
	data, weight := args[0], args[1]
	res := output(dstBuf, out)
	n, k := data.Shape[0], data.Shape[1]
	units := weight.Shape[0]
	// nn.dense is GEMM by definition: rows of data against rows of weight.
	// The packed panels come from the per-weight cache; tile parallelism
	// inside the driver draws on the shared worker budget.
	cfg := tunedConfig(taskKey("nn.dense", data.Shape, weight.Shape, data.DType, unitParams))
	pw := packedConvWeightF32(weight, 1)
	gemmF32Cfg(n, units, k, data.F32(), k, pw.data, res.F32(), units, cfg)
	ep.apply(res.F32())
	return res, nil
}

func qnnDense(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	if err := wantArgs(args, 2, "qnn.dense"); err != nil {
		return nil, err
	}
	return quantizedDense("qnn.dense", args, attrs, out, dstBuf, nil)
}

// quantizedDense is qnn.dense, or with an epilogue qnn.dense_fused: the
// (raw − zp) data rows against the cached (raw − zp) weight panels by the
// int32 GEMM, the accumulators stored or narrowed through ep.
func quantizedDense(op string, args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor, ep *epilogue) (*tensor.Tensor, error) {
	data, weight := args[0], args[1]
	res := output(dstBuf, out)
	n, k := data.Shape[0], data.Shape[1]
	units := weight.Shape[0]
	pw, err := packedConvWeightI32(weight, 1, int32(attrs.Int("kernel_zero_point", 0)))
	if err != nil {
		return nil, err
	}
	dinP := getScratchI32(n * k)
	defer putScratchI32(dinP)
	if err := rawMinusZp(*dinP, data, int32(attrs.Int("input_zero_point", 0))); err != nil {
		return nil, err
	}
	cfg := tunedConfig(taskKey(op, data.Shape, weight.Shape, data.DType, unitParams))
	if ep == nil {
		gemmI32Cfg(n, units, k, *dinP, k, pw.data, res.I32(), units, cfg)
		return res, nil
	}
	accP := getScratchI32(n * units)
	defer putScratchI32(accP)
	gemmI32Cfg(n, units, k, *dinP, k, pw.data, *accP, units, cfg)
	ep.apply(res, *accP, 0)
	return res, nil
}

func init() {
	Register("nn.conv2d", conv2DF32)
	Register("qnn.conv2d", qnnConv2D)
	Register("nn.dense", denseF32)
	Register("qnn.dense", qnnDense)
}
