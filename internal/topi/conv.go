package topi

import (
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/relay"
	"repro/internal/tensor"
)

// One convolution and one dense kernel per element type, each split into
// prepare and run. Prepare reads the argument and output types and the
// attributes, never an operand's data, and builds once what every launch
// would otherwise re-derive: the geometry, the strategy, the epilogue and
// the indirection table (indirectTable). Run checks its arguments against
// the prepared types, binds the tensors — the weight's panels and the tiled
// bias are read from the tensors themselves (Tensor.Derived), so a refilled
// weight or bias derives afresh — and runs the loops. The float and the
// quantized convolution run the same two strategies. The indirect table is
// one generic body, the quantized side feeding it operands widened once to
// (raw − zero point) k-pairs (i16x2), and the two differ only in the GEMM
// tile they call. The direct depthwise row is one per element type: the
// float row (depthwiseRow) reads the image and a tap-major filter, and the
// quantized one (depthwiseRowQnn) reads the raw 8-bit image in place
// through a prepared tap table (depthwiseTable), widening each value as it
// loads it, against a pair-major (raw − zp) filter. Each launch
// may carry an epilogue: qnn.conv2d_fused and qnn.dense_fused are
// qnn.conv2d and qnn.dense with bias → requantize → activation applied to
// each output row as soon as it is reduced (fused.go), and nn.conv2d and
// nn.dense take an optional bias and fused_activation, the Neuron runtime's
// float operations, which the float tile applies to its accumulators at the
// store. Dense runs on the convolution's tiles and panel
// walks, each data row one segment of its table (newDenseTable).

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
//
// newConvGeom trusts its shapes; prepareConvGeom checks them first.
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
// oc == groups — the geometry the depthwise rows walk by channel vectors.
func (g *convGeom) depthwise() bool { return g.icg == 1 && g.ocg() == 1 }

// pairs is the geometry of the same convolution over k-pairs
// (rawMinusZpPairs with vec = icg): a group's icg channels are pairsOf(icg)
// units, so a table over it points the quantized tile at the widened image
// and k() counts pairs.
func (g convGeom) pairs() convGeom {
	g.icg = pairsOf(g.icg)
	g.c = g.icg * g.groups
	return g
}

// prepareConvGeom checks a convolution's data, weight and output types —
// NHWC data, OHWI weight, the output's extent the one the attributes give —
// and returns the geometry: a table built over shapes that disagree would
// send the tiles outside the image.
func prepareConvGeom(in []*relay.TensorType, p conv2dParams, out *relay.TensorType) (convGeom, error) {
	data, weight := in[0].Shape, in[1].Shape
	if len(data) != 4 || len(weight) != 4 || len(out.Shape) != 4 {
		return convGeom{}, fmt.Errorf("data %s, weight %s and output %s must be rank 4", data, weight, out.Shape)
	}
	if p.sh < 1 || p.sw < 1 || p.dh < 1 || p.dw < 1 || p.groups < 1 || min(p.pad[0], p.pad[1], p.pad[2], p.pad[3]) < 0 {
		return convGeom{}, fmt.Errorf("strides %d×%d, dilation %d×%d, %d groups and padding %v are out of range", p.sh, p.sw, p.dh, p.dw, p.groups, p.pad)
	}
	g := newConvGeom(p, data, weight, out.Shape)
	// The padded image's extent past the dilated filter's first reach.
	eh := g.h + p.pad[0] + p.pad[2] - (g.kh-1)*g.dh - 1
	ew := g.w + p.pad[1] + p.pad[3] - (g.kw-1)*g.dw - 1
	if eh < 0 || ew < 0 || g.icg*g.groups != g.c || g.oc%g.groups != 0 || g.oc < 1 || g.icg < 1 ||
		!out.Shape.Equal(tensor.Shape{data[0], eh/g.sh + 1, ew/g.sw + 1, g.oc}) {
		return convGeom{}, fmt.Errorf("data %s, weight %s in %d groups cannot give output %s", data, weight, g.groups, out.Shape)
	}
	return g, nil
}

// convLaunchF32 is a prepared float32 convolution: NHWC data, OHWI weight,
// and the Neuron runtime's form of a CONV_2D or DEPTHWISE_CONV_2D operation
// too — an absorbed bias as args[2] and a fused_activation attribute — which
// it applies as the row epilogue of the same launch (epilogueF32).
type convLaunchF32 struct {
	in  []*relay.TensorType
	out *relay.TensorType
	g   convGeom
	tab *indirectTable[float32] // nil: the direct depthwise row
	ep  epilogueF32             // its bias bound at run
}

func prepareConv2DF32(in []*relay.TensorType, attrs relay.Attrs, out *relay.TensorType) (runner, error) {
	ep, err := newEpilogueF32("nn.conv2d", in, attrs, out)
	if err != nil {
		return nil, err
	}
	p := convParams(attrs)
	return newConvLaunchF32(in, out, p, ep, im2colPays)
}

// newConvLaunchF32 prepares the float convolution by the strategy im2col
// picks: the built-in rule im2colPays, or in tests a forced one.
func newConvLaunchF32(in []*relay.TensorType, out *relay.TensorType, p conv2dParams, ep epilogueF32, im2col func(weight tensor.Shape, groups int) bool) (*convLaunchF32, error) {
	g, err := prepareConvGeom(in, p, out)
	if err != nil {
		return nil, err
	}
	c := &convLaunchF32{in: in, out: out, g: g, ep: ep}
	if im2col(in[1].Shape, p.groups) {
		c.tab, err = newConvTable[float32](&c.g)
	} else if !c.g.depthwise() {
		err = fmt.Errorf("the direct strategy runs depthwise geometries only")
	}
	return c, err
}

func (c *convLaunchF32) bytes() int { return c.tab.bytes() }

// run runs the float32 convolution, parallel over (batch × output row) —
// each worker owns disjoint output rows. The direct strategy, on a
// depthwise geometry only, reduces every cell in place and then runs the
// epilogue over the row; the indirect one, on any geometry, points the GEMM
// tile at each output row's patches in the image through the prepared
// table and multiplies them against the weight's packed panels, the tile
// applying the bias and clamp at its store. The row loop splits when its
// MACs pay for it (convGeom.work). Split or not, a steady-state launch
// allocates nothing.
func (c *convLaunchF32) run(args []*tensor.Tensor, dst *tensor.Tensor) (*tensor.Tensor, error) {
	if err := checkArgs(c.in, args); err != nil {
		return nil, err
	}
	res := output(dst, c.out)
	r := convRowsF32{g: c.g, tab: c.tab, din: args[0].F32(), dout: res.F32(), ep: c.ep.bind(args)}
	if c.tab != nil {
		r.pw = packedConvWeightF32(args[1], c.g.groups)
	} else {
		r.wt = directWeightF32(args[1], &c.g)
	}
	rows := args[0].Shape[0] * c.g.oh
	convRegionF32.Run(rows, c.g.work(rows), r)
	return res, nil
}

var convRegionF32 = parallel.NewRegion(convRowsF32.run)

// convRowsF32 is one float convolution launch's row loop and its closure
// data. It is passed by value, so each worker runs on its own copy —
// geometry included — on its own stack; tab and pw are nil on the direct
// strategy, which reads the tap-major wt (directWeightF32).
type convRowsF32 struct {
	g             convGeom
	tab           *indirectTable[float32]
	din, wt, dout []float32
	pw            *packedWeight[float32]
	ep            epilogueF32
}

// run computes output rows [lo, hi).
func (r convRowsF32) run(lo, hi int) {
	g := &r.g
	if r.tab == nil {
		for job := lo; job < hi; job++ {
			row := r.dout[job*g.rowLen() : (job+1)*g.rowLen()]
			depthwiseRow(row, r.din, r.wt, g, job)
			r.ep.apply(row)
		}
		return
	}
	ocg := g.ocg()
	for job := lo; job < hi; job++ {
		row := r.dout[job*g.rowLen() : (job+1)*g.rowLen()]
		rows := r.tab.convRow(g, r.din, job)
		for grp := 0; grp < g.groups; grp++ {
			indirectPanelsF32(&rows, r.pw.group(grp), row[grp*ocg:], g.ow, ocg, g.k(), g.oc, &r.ep, grp*ocg)
			rows.base += g.icg
		}
	}
}

// depthwiseRow computes output row job (= b·oh + oy) of a float depthwise
// convolution into row[:ow·c]. An output pixel's c cells are one vector,
// cleared and then accumulated tap by tap — (ky, kx) ascending, taps in the
// padding skipped — from the pixel's input channel vector and the tap's row
// of the tap-major filter (tapMajor), out[o] += x[o]·k[o]. Every cell sees
// the same products added in the same order as its own accumulator in a
// per-cell loop (convDirectRowPerCell, kept in conv_test.go), so the results
// are bit-identical; the innermost loop runs over contiguous channels.
func depthwiseRow(row, din, wt []float32, g *convGeom, job int) {
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
// multiple of eight channels run as vectors (mulAddRowVec), which round
// exactly as this loop does; the loop takes the rest. It is kept out of
// line: inlined into depthwiseRow its operands are spilled to the stack on
// every element.
//
//go:noinline
func mulAddRow(out, x, k []float32) {
	x, k = x[:len(out)], k[:len(out)]
	for o := mulAddRowVec(out, x, k); o < len(out); o++ {
		out[o] += float32(x[o] * k[o])
	}
}

// tapMajor writes a float depthwise filter — OHWI with one input channel,
// taps = kh·kw values per output channel — tap-major: dst[t·oc+o] =
// src[o·taps+t], so each tap's weights are one channel vector.
func tapMajor(dst, src []float32, oc, taps int) {
	for o := 0; o < oc; o++ {
		for t, v := range src[o*taps : (o+1)*taps] {
			dst[t*oc+o] = v
		}
	}
}

// directWeight is a depthwise filter in the form its row reads — float
// tap-major (tapMajor) for depthwiseRow, quantized (raw − zp) pair-major
// (directWeightQnn) for depthwiseRowQnn — derived once per weight tensor
// and kept on it (Tensor.SetDerived) as packed panels are. zp is the kernel
// zero point it was widened with; a launch under another prepares afresh
// and leaves the stored form alone.
type directWeight[T float32 | i16x2] struct {
	zp   int32
	data []T
}

// storedDirectWeight returns the form stored on w when it was widened with
// zp, else nil.
func storedDirectWeight[T float32 | i16x2](w *tensor.Tensor, zp int32) []T {
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

// directWeightQnn is the pair-major (raw − zp) form of a quantized
// depthwise filter on g. With the taps flattened (ky, kx) ascending, unit
// wp[p·c+o] holds channel o's taps 2p and 2p+1, an odd last tap paired with
// a zero: per tap pair one channel vector of k-pairs, which depthwiseRowQnn
// multiplies against the two taps' interleaved data.
func directWeightQnn(w *tensor.Tensor, g *convGeom, zp int32) ([]i16x2, error) {
	if data := storedDirectWeight[i16x2](w, zp); data != nil {
		return data, nil
	}
	if w.DType != tensor.UInt8 && w.DType != tensor.Int8 {
		return nil, fmt.Errorf("quantized kernel on %s tensor", w.DType)
	}
	taps, c := g.kh*g.kw, g.oc
	data := make([]i16x2, pairsOf(taps)*c)
	for o := 0; o < c; o++ {
		for t := 0; t < taps; t += 2 {
			lo, hi := w.GetRaw(o*taps+t)-zp, int32(0)
			if t+1 < taps {
				hi = w.GetRaw(o*taps+t+1) - zp
			}
			data[t/2*c+o] = pairOf(lo, hi)
		}
	}
	w.SetDerived(&directWeight[i16x2]{zp: zp, data: data})
	return data, nil
}

// depthwiseTable is the prepared data side of a quantized depthwise launch.
// An output pixel reads the image runs of its kh·kw filter taps — c raw
// channel values each, where they lie — (ky, kx) ascending and padded to an
// even count with one more tap. An entry is an int32 element offset from
// the pixel's input origin, the element (oy·sh − padT, ox·sw − padL) of its
// batch, or zeroRun for a tap in the padding and for the extra tap: those
// read the zero row, c values of the input zero point, which widen to
// exactly 0 — the QNN convention of padding with the zero point. Which taps
// fall in the padding depends only on the pixel's row class and column
// class (paddingClasses over oy and over ox), so the table holds one tap
// list per pair of classes. It is built once per launch, from the types
// alone.
type depthwiseTable struct {
	offs []int32 // row class r's tap lists are offs[r·per : (r+1)·per]
	per  int     // column classes × taps
	taps int     // kh·kw rounded up to even
	rows []int32 // output row oy's class
	cols []int32 // output column ox's tap list: its first entry's index in a row class's lists
	zero *tensor.Tensor
	zp   int32
}

// newDepthwiseTable builds the table of g over 8-bit data of dtype dt and
// zero point zp.
func newDepthwiseTable(g *convGeom, dt tensor.DType, zp int32) (*depthwiseTable, error) {
	if dt != tensor.UInt8 && dt != tensor.Int8 {
		return nil, fmt.Errorf("quantized depthwise convolution on %s data", dt)
	}
	if reach := (int64(g.kh-1)*int64(g.dh)*int64(g.w) + int64(g.kw-1)*int64(g.dw) + 1) * int64(g.c); reach > math.MaxInt32 {
		return nil, fmt.Errorf("depthwise convolution over %d×%d×%d reaches offset %d, past int32", g.h, g.w, g.c, reach)
	}
	t := &depthwiseTable{taps: 2 * pairsOf(g.kh*g.kw), zp: zp}
	var rows, cols [][2]int
	t.rows, rows = paddingClasses(g.oh, g.sh, g.padT, g.kh, g.dh, g.h)
	t.cols, cols = paddingClasses(g.ow, g.sw, g.padL, g.kw, g.dw, g.w)
	t.per = len(cols) * t.taps
	t.offs = make([]int32, 0, len(rows)*t.per)
	for _, r := range rows {
		for _, cs := range cols {
			for tap := 0; tap < t.taps; tap++ {
				ky, kx := tap/g.kw, tap%g.kw
				off := zeroRun
				if tap < g.kh*g.kw && ky >= r[0] && ky < r[1] && kx >= cs[0] && kx < cs[1] {
					off = (ky*g.dh*g.w + kx*g.dw) * g.c
				}
				t.offs = append(t.offs, int32(off))
			}
		}
	}
	for ox := range t.cols {
		t.cols[ox] *= int32(t.taps)
	}
	t.zero = tensor.New(dt, tensor.Shape{g.c})
	for i := 0; i < g.c; i++ {
		setRaw(t.zero, i, zp)
	}
	return t, nil
}

// bytes is what the table holds, none for no table.
func (t *depthwiseTable) bytes() int {
	if t == nil {
		return 0
	}
	return 4*(len(t.offs)+len(t.rows)+len(t.cols)) + t.zero.Bytes()
}

// row computes output row job (= b·oh + oy) of g into dst[:ow·c] from
// data's raw values and the pair-major weight wp (directWeightQnn).
func (t *depthwiseTable) row(dst []int32, data *tensor.Tensor, wp []i16x2, g *convGeom, job int) {
	offs := t.offs[int(t.rows[job%g.oh])*t.per:][:t.per]
	base, step := g.origin(job), g.sw*g.c
	if data.DType == tensor.UInt8 {
		depthwiseRowQnn(dst, data.U8(), base, t.zero.U8(), offs, t.cols, step, t.taps, g.c, wp, t.zp)
	} else {
		depthwiseRowQnn(dst, data.I8(), base, t.zero.I8(), offs, t.cols, step, t.taps, g.c, wp, t.zp)
	}
}

// depthwiseRowQnn is the quantized depthwise row over the raw 8-bit image.
// Output pixel ox has its input origin at img[base + ox·step] and its tap
// list at offs[cols[ox]:][:taps]; each of its c cells is the int32 sum over
// the taps of (raw − zp)·w. Where the CPU has AVX2 the leading multiple of
// eight channels run in YMM vectors (depthwiseRowVec) and
// depthwiseRowQnnGo does the rest; elsewhere it does all of them. Products
// of values within ±255 are exact and int32 addition is associative, so
// pairing the taps gives the per-cell loop's bits.
//
//np:hotpath
func depthwiseRowQnn[T uint8 | int8](row []int32, img []T, base int, zero []T, offs, cols []int32, step, taps, c int, wp []i16x2, zp int32) {
	if lo := depthwiseRowVec(row, img, base, zero, offs, cols, step, taps, c, wp, zp); lo < c {
		depthwiseRowQnnGo(row, img, base, zero, offs, cols, step, taps, c, wp, zp, lo)
	}
}

// depthwiseRowQnnGo is depthwiseRowQnn in portable Go over channels
// [lo, c) of every pixel. It clears the pixel's cells, then per tap pair p
// pairs the two taps' channel values (tableRun), each minus zp, and
// multiplies them against wp[p·c+o] — PMADDWD's lane operation, i16x2.dot.
// It is the row on every architecture but amd64, the channel tail there,
// and the oracle of the assembly.
//
//np:hotpath
func depthwiseRowQnnGo[T uint8 | int8](row []int32, img []T, base int, zero []T, offs, cols []int32, step, taps, c int, wp []i16x2, zp int32, lo int) {
	for ox, col := range cols {
		out := row[ox*c+lo : ox*c+c]
		clear(out)
		list := offs[col:][:taps]
		for p := 0; p+1 < taps; p += 2 {
			w := wp[p/2*c+lo : p/2*c+c]
			x0 := tableRun(img, base, zero, list[p], c)[lo:][:len(w)]
			x1 := tableRun(img, base, zero, list[p+1], c)[lo:][:len(w)]
			for o, k := range w {
				out[o] += pairOf(int32(x0[o])-zp, int32(x1[o])-zp).dot(k)
			}
		}
		base += step
	}
}

// convLaunchQnn is a prepared quantized convolution: qnn.conv2d, whose
// int32 accumulators acc = Σ (q_in − zp_in)·(q_w − zp_w) are the output
// (the requantize kernel narrows them back to 8 bits), or with an epilogue
// qnn.conv2d_fused — one strategy rule for both.
type convLaunchQnn struct {
	in        []*relay.TensorType
	out       *relay.TensorType
	g         convGeom
	zpIn, zpK int32
	tab       *indirectTable[i16x2] // over g.pairs(); nil: the direct depthwise row
	dw        *depthwiseTable       // the direct depthwise row's; nil: the indirect GEMM
	ep        *epilogue             // nil: qnn.conv2d
}

// prepareQnnTail checks a quantized convolution's or dense layer's
// argument count and zero points and, when fused, prepares its epilogue
// (nil otherwise).
func prepareQnnTail(op string, fused bool, in []*relay.TensorType, attrs relay.Attrs, out *relay.TensorType) (*epilogue, error) {
	var ep *epilogue
	if fused {
		e, err := newEpilogue(op, in, attrs, out)
		if err != nil {
			return nil, err
		}
		ep = &e
	} else if len(in) != 2 {
		return nil, fmt.Errorf("%s kernel expects 2 args, got %d", op, len(in))
	}
	return ep, relay.CheckQnnZeroPoints(op, in[0].DType, in[1].DType, attrs)
}

// prepareQnnConv2D prepares qnn.conv2d, or with fused qnn.conv2d_fused.
func prepareQnnConv2D(op string, fused bool) preparer {
	return func(in []*relay.TensorType, attrs relay.Attrs, out *relay.TensorType) (runner, error) {
		ep, err := prepareQnnTail(op, fused, in, attrs, out)
		if err != nil {
			return nil, err
		}
		zpIn := int32(attrs.Int("input_zero_point", 0))
		zpK := int32(attrs.Int("kernel_zero_point", 0))
		return newConvLaunchQnn(in, out, convParams(attrs), zpIn, zpK, ep, im2colPays)
	}
}

// newConvLaunchQnn is newConvLaunchF32 for the quantized convolution.
func newConvLaunchQnn(in []*relay.TensorType, out *relay.TensorType, p conv2dParams, zpIn, zpK int32, ep *epilogue, im2col func(weight tensor.Shape, groups int) bool) (*convLaunchQnn, error) {
	g, err := prepareConvGeom(in, p, out)
	if err != nil {
		return nil, err
	}
	c := &convLaunchQnn{in: in, out: out, g: g, zpIn: zpIn, zpK: zpK, ep: ep}
	if im2col(in[1].Shape, p.groups) {
		gp := c.g.pairs()
		c.tab, err = newConvTable[i16x2](&gp)
	} else if !c.g.depthwise() {
		err = fmt.Errorf("the direct strategy runs depthwise geometries only")
	} else {
		c.dw, err = newDepthwiseTable(&c.g, in[0].DType, zpIn)
	}
	return c, err
}

func (c *convLaunchQnn) bytes() int { return c.tab.bytes() + c.dw.bytes() }

// run runs the quantized convolution by its strategy, parallel over
// (batch × output row) like convLaunchF32. The direct strategy, on a
// depthwise geometry only, reads the raw 8-bit data in place through its
// prepared tap table, widening as it loads, against the weight's pair-major
// form (directWeightQnn). The indirect one widens the data into pooled
// k-pairs (rawMinusZpPairs), which its table points into, and reads the
// packed pair panels of the weight; that widening is a parallel launch of
// its own ahead of the row loop — every output row reads input rows of its
// neighbours, so the row loop cannot widen its own. Integer accumulation is
// exact, so both strategies give the same bits. Without an epilogue (qnn.conv2d) the int32
// accumulators are the output; otherwise each output row is reduced into
// scratch and narrowed through the epilogue. Split or not, a steady-state
// launch allocates nothing.
func (c *convLaunchQnn) run(args []*tensor.Tensor, dst *tensor.Tensor) (*tensor.Tensor, error) {
	if err := checkArgs(c.in, args); err != nil {
		return nil, err
	}
	data, weight := args[0], args[1]
	res := output(dst, c.out)
	r := convRowsQnn{g: c.g, tab: c.tab, res: res}
	if c.ep != nil {
		r.ep, r.fused = c.ep.bind(args), true
	}
	g := &r.g
	if c.tab != nil {
		dinP := scratchPairs.get(data.Elems() / g.icg * pairsOf(g.icg))
		defer scratchPairs.put(dinP)
		if err := rawMinusZpPairs(*dinP, data, c.zpIn, g.icg); err != nil {
			return nil, err
		}
		pw, err := packedConvWeightI32(weight, g.groups, c.zpK)
		if err != nil {
			return nil, err
		}
		r.dinPairs, r.pw = *dinP, pw
	} else {
		wp, err := directWeightQnn(weight, g, c.zpK)
		if err != nil {
			return nil, err
		}
		r.dw, r.data, r.wp = c.dw, data, wp
	}
	rows := data.Shape[0] * g.oh
	convRegionQnn.Run(rows, g.work(rows), r)
	return res, nil
}

var convRegionQnn = parallel.NewRegion(convRowsQnn.run)

// convRowsQnn is one quantized convolution launch's row loop, passed by value
// like convRowsF32, its epilogue bound to this launch's bias. tab and pw are
// nil on the direct strategy, which reads data through dw against wp; the
// indirect one reads dinPairs and pw.
type convRowsQnn struct {
	g        convGeom
	tab      *indirectTable[i16x2]
	dinPairs []i16x2
	pw       *packedWeight[i16x2]
	dw       *depthwiseTable
	data     *tensor.Tensor
	wp       []i16x2
	res      *tensor.Tensor
	fused    bool
	ep       epilogue
}

// run computes output rows [lo, hi).
func (r convRowsQnn) run(lo, hi int) {
	g := &r.g
	gp := g.pairs()
	var accP *[]int32
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
		if r.tab == nil {
			r.dw.row(row, r.data, r.wp, g, job)
		} else {
			rows := r.tab.convRow(&gp, r.dinPairs, job)
			for grp := 0; grp < g.groups; grp++ {
				indirectPanelsI32(&rows, r.pw.group(grp), row[grp*ocg:], g.ow, ocg, gp.k(), g.oc)
				rows.base += gp.icg
			}
		}
		if r.fused {
			r.ep.apply(r.res, row, job*g.rowLen())
		}
	}
}

// prepareDenseTypes checks a dense layer's data, weight and output types —
// data m×k, weight units×k, output m×units — and returns m, k and units.
func prepareDenseTypes(in []*relay.TensorType, out *relay.TensorType) (m, k, units int, err error) {
	data, weight := in[0].Shape, in[1].Shape
	if len(data) != 2 || len(weight) != 2 || data[1] != weight[1] || !out.Shape.Equal(tensor.Shape{data[0], weight[0]}) {
		return 0, 0, 0, fmt.Errorf("data %s and weight %s cannot give output %s", data, weight, out.Shape)
	}
	return data[0], data[1], weight[0], nil
}

// denseLaunchF32 is a prepared nn.dense, and like convLaunchF32 it also
// takes the Neuron FULLY_CONNECTED form: a bias as args[2] and
// fused_activation, which the float tile applies to its accumulators at the
// store.
type denseLaunchF32 struct {
	in         []*relay.TensorType
	out        *relay.TensorType
	m, k, unit int
	tab        *indirectTable[float32]
	ep         epilogueF32
}

func prepareDenseF32(in []*relay.TensorType, attrs relay.Attrs, out *relay.TensorType) (runner, error) {
	ep, err := newEpilogueF32("nn.dense", in, attrs, out)
	if err != nil {
		return nil, err
	}
	d := &denseLaunchF32{in: in, out: out, ep: ep}
	if d.m, d.k, d.unit, err = prepareDenseTypes(in, out); err != nil {
		return nil, err
	}
	d.tab, err = newDenseTable[float32](d.m, d.k, d.k)
	return d, err
}

func (d *denseLaunchF32) bytes() int { return d.tab.bytes() }

func (d *denseLaunchF32) run(args []*tensor.Tensor, dst *tensor.Tensor) (*tensor.Tensor, error) {
	if err := checkArgs(d.in, args); err != nil {
		return nil, err
	}
	res := output(dst, d.out)
	// nn.dense is GEMM by definition: rows of data against rows of weight,
	// whose packed panels are the weight's own.
	pw := packedConvWeightF32(args[1], 1)
	denseGemmF32(d.tab, args[0].F32(), pw.data, res.F32(), d.m, d.unit, d.k, d.unit, d.ep.bind(args))
	return res, nil
}

// denseGemmF32 computes C[i·ldc+j] = clamp(Σ_k A[i·lda+k]·B[j][k] +
// bias[j]) for i<m, j<n by ep, where bpack holds B packed at gemmNR (a
// weight's panels): the f32 tiles read A's rows in place through tab, its
// dense table (offsets i·lda). The N-panels are split among workers in
// groups of gemmWidePanels, so a chunk boundary never cuts a wide tile and
// only the last chunk has a tail. Overwrite semantics; each cell's
// reduction is bit-identical to the naive loop, then the bias is added and
// the clamp applied as epilogueF32.apply does. A steady-state launch
// allocates nothing, split or not.
func denseGemmF32(tab *indirectTable[float32], a, bpack, c []float32, m, n, k, ldc int, ep epilogueF32) {
	if m <= 0 || n <= 0 {
		return
	}
	nt := gemmTiles(n, gemmNR)
	denseRegionF32.Run(gemmTiles(nt, gemmWidePanels), int64(m)*int64(n)*int64(k),
		densePanelsF32{tab, a, bpack, c, m, n, k, ldc, ep})
}

var denseRegionF32 = parallel.NewRegion(densePanelsF32.run)

// densePanelsF32 is denseGemmF32's panel loop and its closure data, the
// epilogue carried by value as convRowsF32 carries it: run covers panel
// groups [gLo, gHi) of gemmWidePanels panels, each chunk the panel walk over
// its own slice of the panels, of C and of the bias.
type densePanelsF32 struct {
	tab          *indirectTable[float32]
	a, bpack, c  []float32
	m, n, k, ldc int
	ep           epilogueF32
}

func (d densePanelsF32) run(gLo, gHi int) {
	lo, hi := gLo*gemmWidePanels*gemmNR, min(gHi*gemmWidePanels*gemmNR, d.n)
	rows := tileRows[float32]{tab: d.tab, offs: d.tab.offs, a: d.a}
	indirectPanelsF32(&rows, d.bpack[lo*d.k:], d.c[lo:], d.m, hi-lo, d.k, d.ldc, &d.ep, lo)
}

// denseLaunchQnn is a prepared qnn.dense, or with an epilogue
// qnn.dense_fused: the (raw − zp) data rows, as k-pairs, against the packed
// pair panels of the weight by the int32-sum tiles, the sums stored or
// narrowed through the epilogue.
type denseLaunchQnn struct {
	in         []*relay.TensorType
	out        *relay.TensorType
	m, k, unit int
	zpIn, zpK  int32
	tab        *indirectTable[i16x2]
	ep         *epilogue // nil: qnn.dense
}

// prepareQnnDense prepares qnn.dense, or with fused qnn.dense_fused.
func prepareQnnDense(op string, fused bool) preparer {
	return func(in []*relay.TensorType, attrs relay.Attrs, out *relay.TensorType) (runner, error) {
		d := &denseLaunchQnn{in: in, out: out,
			zpIn: int32(attrs.Int("input_zero_point", 0)), zpK: int32(attrs.Int("kernel_zero_point", 0))}
		var err error
		if d.ep, err = prepareQnnTail(op, fused, in, attrs, out); err != nil {
			return nil, err
		}
		if d.m, d.k, d.unit, err = prepareDenseTypes(in, out); err != nil {
			return nil, err
		}
		kp := pairsOf(d.k)
		d.tab, err = newDenseTable[i16x2](d.m, kp, kp)
		return d, err
	}
}

func (d *denseLaunchQnn) bytes() int { return d.tab.bytes() }

func (d *denseLaunchQnn) run(args []*tensor.Tensor, dst *tensor.Tensor) (*tensor.Tensor, error) {
	if err := checkArgs(d.in, args); err != nil {
		return nil, err
	}
	res := output(dst, d.out)
	kp := pairsOf(d.k)
	pw, err := packedConvWeightI32(args[1], 1, d.zpK)
	if err != nil {
		return nil, err
	}
	dinP := scratchPairs.get(d.m * kp)
	defer scratchPairs.put(dinP)
	if err := rawMinusZpPairs(*dinP, args[0], d.zpIn, d.k); err != nil {
		return nil, err
	}
	if d.ep == nil {
		denseGemmI32(d.tab, *dinP, pw.data, res.I32(), d.m, d.unit, kp, d.unit)
		return res, nil
	}
	accP := scratchI32.get(d.m * d.unit)
	defer scratchI32.put(accP)
	denseGemmI32(d.tab, *dinP, pw.data, *accP, d.m, d.unit, kp, d.unit)
	ep := d.ep.bind(args)
	ep.apply(res, *accP, 0)
	return res, nil
}

// denseGemmI32 is denseGemmF32 for the quantized operands: A is m rows of
// kp pairs read through tab, B packed at gemmNR, C int32 sums stored as
// they are. The panels are split one by one; the work counts each k-pair as
// two MACs.
func denseGemmI32(tab *indirectTable[i16x2], a, bpack []i16x2, c []int32, m, n, kp, ldc int) {
	if m <= 0 || n <= 0 {
		return
	}
	denseRegionI32.Run(gemmTiles(n, gemmNR), 2*int64(m)*int64(n)*int64(kp),
		densePanelsI32{tab, a, bpack, c, m, n, kp, ldc})
}

var denseRegionI32 = parallel.NewRegion(densePanelsI32.run)

// densePanelsI32 is denseGemmI32's panel loop and its closure data: run
// covers panels [jtLo, jtHi).
type densePanelsI32 struct {
	tab           *indirectTable[i16x2]
	a, bpack      []i16x2
	c             []int32
	m, n, kp, ldc int
}

func (d densePanelsI32) run(jtLo, jtHi int) {
	lo, hi := jtLo*gemmNR, min(jtHi*gemmNR, d.n)
	rows := tileRows[i16x2]{tab: d.tab, offs: d.tab.offs, a: d.a}
	indirectPanelsI32(&rows, d.bpack[lo*d.kp:], d.c[lo:], d.m, hi-lo, d.kp, d.ldc)
}

func init() {
	registerPrepared("nn.conv2d", prepareConv2DF32)
	registerPrepared("qnn.conv2d", prepareQnnConv2D("qnn.conv2d", false))
	registerPrepared("nn.dense", prepareDenseF32)
	registerPrepared("qnn.dense", prepareQnnDense("qnn.dense", false))
}
