package topi

import (
	"repro/internal/parallel"
	"repro/internal/relay"
	"repro/internal/tensor"
)

// One convolution and one dense kernel per element type. The float and the
// quantized convolution run the same two strategies over the same loops —
// the direct depthwise row (depthwiseRow) and the indirect row table
// (indirectRow) are one generic body each, the quantized side feeding them
// operands widened once to (raw − zero point): int32 for the direct row,
// k-pairs (i16x2) for the indirect table — and differ only in the GEMM
// tile they call. Each launch may carry an epilogue: qnn.conv2d_fused and
// qnn.dense_fused are qnn.conv2d and qnn.dense with bias → requantize →
// activation applied to each output row as soon as it is reduced (fused.go),
// and nn.conv2d and nn.dense take an optional bias and fused_activation, the
// Neuron runtime's float operations, which the float tile applies to its
// accumulators at the store. Dense runs on the convolution's tiles and panel
// walks, each data row one segment of the row table (denseRows).

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
// attributes. It is sixteen words, carried by value in the row loop's
// closure data (convRowsF32, convRowsQnn), so each worker reads its own copy
// and the row functions take a pointer to it.
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

// work is the MACs of rows output rows, the convolution's split estimate.
func (g *convGeom) work(rows int) int64 { return int64(rows) * int64(g.rowLen()) * int64(g.k()) }

// depthwise reports one input and one output channel per group — so c ==
// oc == groups — the geometry depthwiseRow walks by channel vectors.
func (g *convGeom) depthwise() bool { return g.icg == 1 && g.ocg() == 1 }

// pairs is the geometry of the same convolution over k-pairs
// (rawMinusZpPairs with vec = icg): a group's icg channels are pairsOf(icg)
// units, so indirectRow over pair data points the quantized tile at the
// widened image and k() counts pairs.
func (g convGeom) pairs() convGeom {
	g.icg = pairsOf(g.icg)
	g.c = g.icg * g.groups
	return g
}

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
	return convF32(data, weight, p, out, dstBuf, im2colPays(weight.Shape, p.groups), ep), nil
}

// convF32 runs the float32 convolution by one strategy, parallel over
// (batch × output row) — each worker owns disjoint output rows. The direct
// strategy, on a depthwise geometry only, reduces every cell in place and
// then runs ep over the row; the indirect one, on any geometry, points the
// GEMM tile at each output row's patches in the image (indirectRow) and
// multiplies them against the weight's packed panels, the tile applying
// ep's bias and clamp at its store. The row loop splits when its MACs pay
// for it (convGeom.work). Split or not, a steady-state launch allocates
// nothing.
func convF32(data, weight *tensor.Tensor, p conv2dParams, out *relay.TensorType, dstBuf *tensor.Tensor, im2col bool, ep epilogueF32) *tensor.Tensor {
	res := output(dstBuf, out)
	r := convRowsF32{
		g:   newConvGeom(p, data.Shape, weight.Shape, out.Shape),
		din: data.F32(), dout: res.F32(),
		ep: ep,
	}
	if im2col {
		r.pw = packedConvWeightF32(weight, r.g.groups)
	} else {
		r.wt = directWeightF32(weight, &r.g)
	}
	rows := data.Shape[0] * r.g.oh
	convRegionF32.Run(rows, r.g.work(rows), r)
	return res
}

var convRegionF32 = parallel.NewRegion(convRowsF32.run)

// convRowsF32 is one float convolution launch's row loop and its closure
// data. It is passed by value, so each worker runs on its own copy —
// geometry included — on its own stack; pw is nil on the direct strategy,
// which reads the tap-major wt (directWeightF32).
type convRowsF32 struct {
	g             convGeom
	din, wt, dout []float32
	pw            *packedWeight[float32]
	ep            epilogueF32
}

// run computes output rows [lo, hi).
func (r convRowsF32) run(lo, hi int) {
	g := &r.g
	if r.pw == nil {
		for job := lo; job < hi; job++ {
			row := r.dout[job*g.rowLen() : (job+1)*g.rowLen()]
			depthwiseRow(row, r.din, r.wt, g, job)
			r.ep.apply(row)
		}
		return
	}
	s := getConvIndirect[float32](&indirectPoolF32, g)
	defer indirectPoolF32.Put(s)
	ocg := g.ocg()
	for job := lo; job < hi; job++ {
		row := r.dout[job*g.rowLen() : (job+1)*g.rowLen()]
		for grp := 0; grp < g.groups; grp++ {
			indirectRow(s, r.din, g, job, grp)
			indirectPanelsF32(s.tiles, r.pw.group(grp), row[grp*ocg:], g.ow, ocg, g.k(), g.oc, &r.ep, grp*ocg)
		}
	}
}

// depthwiseRow computes output row job (= b·oh + oy) of a depthwise
// convolution into row[:ow·c]. An output pixel's c cells are one vector,
// cleared and then accumulated tap by tap — (ky, kx) ascending, taps in the
// padding skipped — from the pixel's input channel vector and the tap's row
// of the tap-major filter (tapMajor), out[o] += x[o]·k[o]. Every cell sees
// the same products added in the same order as its own accumulator in a
// per-cell loop (convDirectRowPerCell, kept in conv_test.go), so float
// results are bit-identical; the innermost loop runs over contiguous
// channels. Quantized operands arrive widened to (raw − zero point), so a
// skipped tap is exactly the QNN convention of padding with the zero point,
// which contributes (zp − zp) = 0.
func depthwiseRow[T float32 | int32](row, din, wt []T, g *convGeom, job int) {
	h, w, c, kh, kw := g.h, g.w, g.c, g.kh, g.kw
	b, oy := job/g.oh, job%g.oh
	for ox := 0; ox < g.ow; ox++ {
		out := row[ox*c : ox*c+c]
		clear(out)
		for ky := 0; ky < kh; ky++ {
			iy := oy*g.sh - g.padT + ky*g.dh
			if iy < 0 || iy >= h {
				continue
			}
			in := din[(b*h+iy)*w*c:]
			for kx := 0; kx < kw; kx++ {
				ix := ox*g.sw - g.padL + kx*g.dw
				if ix < 0 || ix >= w {
					continue
				}
				tap := (ky*kw + kx) * c
				mulAddRow(out, in[ix*c:ix*c+c], wt[tap:tap+c])
			}
		}
	}
}

// mulAddRow is out[o] += x[o]·k[o] over len(out) channels — one multiply
// and one add per element, each rounded. Where the CPU has AVX2 the leading
// multiple of eight channels run as vectors (mulAddRowVec), which round and
// wrap exactly as this loop does; the loop takes the rest. It is kept out of
// line: inlined into depthwiseRow its operands are spilled to the stack on
// every element.
//
//go:noinline
func mulAddRow[T float32 | int32](out, x, k []T) {
	x, k = x[:len(out)], k[:len(out)]
	for o := mulAddRowVec(out, x, k); o < len(out); o++ {
		out[o] += T(x[o] * k[o])
	}
}

// tapMajor writes a depthwise filter — OHWI with one input channel, taps =
// kh·kw values per output channel — tap-major: dst[t·oc+o] = src[o·taps+t],
// so each tap's weights are one channel vector.
func tapMajor[T float32 | int32](dst, src []T, oc, taps int) {
	for o := 0; o < oc; o++ {
		for t, v := range src[o*taps : (o+1)*taps] {
			dst[t*oc+o] = v
		}
	}
}

// directWeight is a depthwise filter in the form depthwiseRow reads —
// tap-major (tapMajor), a quantized one widened to (raw − zp) int32 first —
// derived once per weight tensor and kept on it (Tensor.SetDerived) as
// packed panels are. zp is the kernel zero point it was widened with; a
// launch under another prepares afresh and leaves the stored form alone.
type directWeight[T float32 | int32] struct {
	zp   int32
	data []T
}

// storedDirectWeight returns the form stored on w when it was widened with
// zp, else nil.
func storedDirectWeight[T float32 | int32](w *tensor.Tensor, zp int32) []T {
	if dw, ok := w.Derived().(*directWeight[T]); ok && dw.zp == zp {
		return dw.data
	}
	return nil
}

// directWeightF32 is the tap-major form of a float depthwise filter on g.
func directWeightF32(w *tensor.Tensor, g *convGeom) []float32 {
	if data := storedDirectWeight[float32](w, 0); data != nil {
		return data
	}
	data := make([]float32, w.Elems())
	tapMajor(data, w.F32(), g.oc, g.kh*g.kw)
	w.SetDerived(&directWeight[float32]{data: data})
	return data
}

// directWeightI32 is the tap-major (raw − zp) form of a quantized depthwise
// filter on g.
func directWeightI32(w *tensor.Tensor, g *convGeom, zp int32) ([]int32, error) {
	if data := storedDirectWeight[int32](w, zp); data != nil {
		return data, nil
	}
	rawP := scratchI32.get(w.Elems())
	defer scratchI32.put(rawP)
	if err := rawMinusZp(*rawP, w, zp); err != nil {
		return nil, err
	}
	data := make([]int32, w.Elems())
	tapMajor(data, *rawP, g.oc, g.kh*g.kw)
	w.SetDerived(&directWeight[int32]{zp: zp, data: data})
	return data, nil
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
// one strategy rule for both.
func quantizedConv(op string, args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor, ep *epilogue) (*tensor.Tensor, error) {
	data, weight := args[0], args[1]
	if err := relay.CheckQnnZeroPoints(op, data.DType, weight.DType, attrs); err != nil {
		return nil, err
	}
	p := convParams(attrs)
	zpIn := int32(attrs.Int("input_zero_point", 0))
	zpK := int32(attrs.Int("kernel_zero_point", 0))
	return convQnn(data, weight, p, zpIn, zpK, out, dstBuf, im2colPays(weight.Shape, p.groups), ep)
}

// convQnn runs the quantized convolution by one strategy, parallel over
// (batch × output row) like convF32. The direct strategy, on a depthwise
// geometry only, widens the data once into pooled (raw − zp) int32 scratch
// and reads the weight's tap-major form (directWeightI32). The indirect one
// widens the data into pooled k-pairs (rawMinusZpPairs), which its row
// tables point into, and reads the packed pair panels of the weight. Either
// widening is a parallel launch of its own ahead of the row loop — every
// output row reads input rows of its neighbours, so the row loop cannot
// widen its own. Integer accumulation is exact, so both strategies give the same bits. With
// ep == nil (qnn.conv2d) the int32 accumulators are the output; otherwise
// each output row is reduced into scratch and narrowed through a copy of ep.
// Split or not, a steady-state launch allocates nothing.
func convQnn(data, weight *tensor.Tensor, p conv2dParams, zpIn, zpK int32, out *relay.TensorType, dstBuf *tensor.Tensor, im2col bool, ep *epilogue) (*tensor.Tensor, error) {
	res := output(dstBuf, out)
	r := convRowsQnn{g: newConvGeom(p, data.Shape, weight.Shape, out.Shape), res: res}
	if ep != nil {
		r.ep, r.fused = *ep, true
	}
	g := &r.g
	if im2col {
		gp := g.pairs()
		dinP := scratchPairs.get(data.Elems() / g.icg * gp.icg)
		defer scratchPairs.put(dinP)
		if err := rawMinusZpPairs(*dinP, data, zpIn, g.icg); err != nil {
			return nil, err
		}
		pw, err := packedConvWeightI32(weight, g.groups, zpK)
		if err != nil {
			return nil, err
		}
		r.dinPairs, r.pw = *dinP, pw
	} else {
		dinP := scratchI32.get(data.Elems())
		defer scratchI32.put(dinP)
		if err := rawMinusZp(*dinP, data, zpIn); err != nil {
			return nil, err
		}
		wt, err := directWeightI32(weight, g, zpK)
		if err != nil {
			return nil, err
		}
		r.din, r.wt = *dinP, wt
	}
	rows := data.Shape[0] * g.oh
	convRegionQnn.Run(rows, g.work(rows), r)
	return res, nil
}

var convRegionQnn = parallel.NewRegion(convRowsQnn.run)

// convRowsQnn is one quantized convolution launch's row loop, passed by value
// like convRowsF32 — epilogue included, so no pointer to the caller's
// epilogue escapes. pw is nil on the direct strategy, which reads din and wt;
// the indirect one reads dinPairs and pw.
type convRowsQnn struct {
	g        convGeom
	din, wt  []int32
	dinPairs []i16x2
	pw       *packedWeight[i16x2]
	res      *tensor.Tensor
	fused    bool
	ep       epilogue
}

// run computes output rows [lo, hi).
func (r convRowsQnn) run(lo, hi int) {
	g := &r.g
	gp := g.pairs()
	var s *indirectScratch[i16x2]
	var accP *[]int32
	if r.pw != nil {
		s = getConvIndirect[i16x2](&indirectPoolPairs, &gp)
		defer indirectPoolPairs.Put(s)
	}
	if r.fused {
		accP = scratchI32.get(g.rowLen())
		defer scratchI32.put(accP)
	}
	var dout []int32
	if !r.fused {
		dout = r.res.I32()
	}
	ocg := g.ocg()
	for job := lo; job < hi; job++ {
		var row []int32
		if r.fused {
			row = *accP
		} else {
			row = dout[job*g.rowLen() : (job+1)*g.rowLen()]
		}
		if r.pw == nil {
			depthwiseRow(row, r.din, r.wt, g, job)
		} else {
			for grp := 0; grp < g.groups; grp++ {
				indirectRow(s, r.dinPairs, &gp, job, grp)
				indirectPanelsI32(s.tiles, r.pw.group(grp), row[grp*ocg:], g.ow, ocg, gp.k(), g.oc)
			}
		}
		if r.fused {
			r.ep.apply(r.res, row, job*g.rowLen())
		}
	}
}

// denseF32 is nn.dense, and like conv2DF32 it also takes the Neuron
// FULLY_CONNECTED form: a bias as args[2] and fused_activation, which the
// float tile applies to its accumulators at the store.
func denseF32(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	ep, err := newEpilogueF32("nn.dense", args, attrs, out)
	if err != nil {
		return nil, err
	}
	data, weight := args[0], args[1]
	res := output(dstBuf, out)
	n, k := data.Shape[0], data.Shape[1]
	units := weight.Shape[0]
	// nn.dense is GEMM by definition: rows of data against rows of weight,
	// whose packed panels are the weight's own.
	pw := packedConvWeightF32(weight, 1)
	denseLaunchF32(n, units, k, data.F32(), k, pw.data, res.F32(), units, ep)
	return res, nil
}

// denseLaunchF32 computes C[i·ldc+j] = clamp(Σ_k A[i·lda+k]·B[j][k] +
// bias[j]) for i<m, j<n by ep, where bpack holds B packed at gemmNR (a
// weight's panels): the f32 tiles read A's rows in place through a table of
// one segment a row (denseRows), taken from the convolution's pool. The
// N-panels are split among workers in groups of gemmWidePanels, so a chunk
// boundary never cuts a wide tile and only the last chunk has a tail.
// Overwrite semantics; each cell's reduction is bit-identical to the naive
// loop, then the bias is added and the clamp applied as epilogueF32.apply
// does. A steady-state launch allocates nothing, split or not.
func denseLaunchF32(m, n, k int, a []float32, lda int, bpack, c []float32, ldc int, ep epilogueF32) {
	if m <= 0 || n <= 0 {
		return
	}
	s := getIndirect[float32](&indirectPoolF32, gemmTiles(m, gemmMR), 1, 0)
	denseRows(s, a, m, k, lda)
	nt := gemmTiles(n, gemmNR)
	denseRegionF32.Run(gemmTiles(nt, gemmWidePanels), int64(m)*int64(n)*int64(k),
		densePanelsF32{s.tiles, bpack, c, m, n, k, ldc, ep})
	indirectPoolF32.Put(s)
}

var denseRegionF32 = parallel.NewRegion(densePanelsF32.run)

// densePanelsF32 is denseLaunchF32's panel loop and its closure data, the
// epilogue carried by value as convRowsF32 carries it: run covers panel
// groups [gLo, gHi) of gemmWidePanels panels, each chunk the panel walk over
// its own slice of the panels, of C and of the bias.
type densePanelsF32 struct {
	tiles        [][][]float32
	bpack, c     []float32
	m, n, k, ldc int
	ep           epilogueF32
}

func (d densePanelsF32) run(gLo, gHi int) {
	lo, hi := gLo*gemmWidePanels*gemmNR, min(gHi*gemmWidePanels*gemmNR, d.n)
	indirectPanelsF32(d.tiles, d.bpack[lo*d.k:], d.c[lo:], d.m, hi-lo, d.k, d.ldc, &d.ep, lo)
}

func qnnDense(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	if err := wantArgs(args, 2, "qnn.dense"); err != nil {
		return nil, err
	}
	return quantizedDense("qnn.dense", args, attrs, out, dstBuf, nil)
}

// quantizedDense is qnn.dense, or with an epilogue qnn.dense_fused: the
// (raw − zp) data rows, as k-pairs, against the packed pair panels of the
// weight by the int32-sum tiles, the sums stored or narrowed through ep.
func quantizedDense(op string, args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor, ep *epilogue) (*tensor.Tensor, error) {
	data, weight := args[0], args[1]
	if err := relay.CheckQnnZeroPoints(op, data.DType, weight.DType, attrs); err != nil {
		return nil, err
	}
	res := output(dstBuf, out)
	n, k := data.Shape[0], data.Shape[1]
	kp := pairsOf(k)
	units := weight.Shape[0]
	pw, err := packedConvWeightI32(weight, 1, int32(attrs.Int("kernel_zero_point", 0)))
	if err != nil {
		return nil, err
	}
	dinP := scratchPairs.get(n * kp)
	defer scratchPairs.put(dinP)
	if err := rawMinusZpPairs(*dinP, data, int32(attrs.Int("input_zero_point", 0)), k); err != nil {
		return nil, err
	}
	if ep == nil {
		denseLaunchI32(n, units, kp, *dinP, kp, pw.data, res.I32(), units)
		return res, nil
	}
	accP := scratchI32.get(n * units)
	defer scratchI32.put(accP)
	denseLaunchI32(n, units, kp, *dinP, kp, pw.data, *accP, units)
	ep.apply(res, *accP, 0)
	return res, nil
}

// denseLaunchI32 is denseLaunchF32 for the quantized operands: A is m rows
// of kp pairs (row stride lda), B packed at gemmNR, C int32 sums stored as
// they are. The panels are split one by one; the work counts each k-pair as
// two MACs.
func denseLaunchI32(m, n, kp int, a []i16x2, lda int, bpack []i16x2, c []int32, ldc int) {
	if m <= 0 || n <= 0 {
		return
	}
	s := getIndirect[i16x2](&indirectPoolPairs, gemmTiles(m, gemmMR), 1, 0)
	denseRows(s, a, m, kp, lda)
	denseRegionI32.Run(gemmTiles(n, gemmNR), 2*int64(m)*int64(n)*int64(kp),
		densePanelsI32{s.tiles, bpack, c, m, n, kp, ldc})
	indirectPoolPairs.Put(s)
}

var denseRegionI32 = parallel.NewRegion(densePanelsI32.run)

// densePanelsI32 is denseLaunchI32's panel loop and its closure data: run
// covers panels [jtLo, jtHi).
type densePanelsI32 struct {
	tiles         [][][]i16x2
	bpack         []i16x2
	c             []int32
	m, n, kp, ldc int
}

func (d densePanelsI32) run(jtLo, jtHi int) {
	lo, hi := jtLo*gemmNR, min(jtHi*gemmNR, d.n)
	indirectPanelsI32(d.tiles, d.bpack[lo*d.kp:], d.c[lo:], d.m, hi-lo, d.kp, d.ldc)
}

func init() {
	Register("nn.conv2d", conv2DF32)
	Register("qnn.conv2d", qnnConv2D)
	Register("nn.dense", denseF32)
	Register("qnn.dense", qnnDense)
}
