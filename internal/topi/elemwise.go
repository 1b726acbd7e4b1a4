package topi

import (
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/relay"
	"repro/internal/tensor"
)

// Elementwise kernels. Each float kernel here is a parallel.Region launch
// like the GEMM tiles' — its work one MAC-equivalent an element, or the
// cost model's weight for softmax and LRN — so a tensor big enough to pay
// for a split is shared with the helper pool and a small one runs on the
// caller without waking it, instead of a serial pass the helpers spin
// through. The quantized convolution's operand widening (rawMinusZp,
// rawMinusZpPairs in gemm.go) is such a launch too, split over whole pixel
// vectors so no k-pair straddles two chunks.
//
// Each launch's chunk runs a typed loop with the op's body inline: the
// maps pass their loop to mapF32, and the six binary ops are one zipF32
// loop each. Every binary launch walks one broadcaster, which merges the
// axes the two operands walk alike and zips a row at a time: a row both
// operands advance along (equal shapes are a single row) in one zipF32
// call, a row along which one operand repeats a shorter row of its own —
// a scalar, or the per-channel scale and shift of batch norm in an NHWC
// float model — by zipRowsF32, against that row repeated to 64 elements,
// in either operand position and keeping subtract's and divide's operand
// order. The broadcaster's axes fit in a fixed array up to eight after
// merging, so no walk below that allocates. Each output element sees the
// same operation on the same operands whichever row and chunk computes it,
// so the results are bit-identical to the per-element reference loops the
// tests keep.

// mapF32 registers a float32 map kernel from its loop over one chunk
// (len(dst) == len(src)), the op's body inline in the loop.
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
		mapRegion.Elems(len(src), mapArgs{loop, dst, src})
		return res, nil
	})
}

var mapRegion = parallel.NewRegion(mapArgs.run)

// mapArgs is a map kernel's chunk: its loop over one range.
type mapArgs struct {
	loop     func(dst, src []float32)
	dst, src []float32
}

func (a mapArgs) run(lo, hi int) { a.loop(a.dst[lo:hi], a.src[lo:hi]) }

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

// binOp is a binary float kernel's operation.
type binOp uint8

const (
	opAdd binOp = iota
	opSubtract
	opMultiply
	opDivide
	opMaximum
	opMinimum
)

// binaryF32 registers a broadcasting float32 zip kernel. Every launch, equal
// shapes included, walks its output with a broadcaster, a row at a time:
// zipF32 zips a row along which both operands advance, zipRowsF32 one
// along which an operand repeats a shorter row of its own — a scalar, or a
// channel vector against an NHWC tensor.
func binaryF32(name string, op binOp) {
	Register(name, func(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
		if err := wantArgs(args, 2, name); err != nil {
			return nil, err
		}
		a, b := args[0], args[1]
		res := output(dstBuf, out)
		dst := res.F32()
		zipRegion.Elems(len(dst), zipArgs{op, newBroadcaster(a.Shape, b.Shape, out.Shape), a.F32(), b.F32(), dst})
		return res, nil
	})
}

var zipRegion = parallel.NewRegion(zipArgs.run)

// zipArgs is a zip kernel's chunk.
type zipArgs struct {
	op        binOp
	bc        broadcaster
	a, b, dst []float32
}

// run zips output elements [lo, hi) row by row. The multi-index is computed
// once, at lo, and carried from row to row.
//
//np:hotpath
func (z zipArgs) run(lo, hi int) {
	bc := &z.bc
	ax := bc.axes()[bc.outer:]
	var posBuf [maxBroadcastRank]int
	pos := posBuf[:]
	if len(ax) > len(pos) {
		pos = make([]int, len(ax)) //np:alloc-ok only past maxBroadcastRank merged axes, which no model reaches
	}
	p0, ia, ib := bc.rowStart(lo, pos)
	for i := lo; i < hi; {
		n := min(bc.d-p0, hi-i)
		dst := z.dst[i : i+n]
		switch {
		case bc.period == 0:
			zipF32(z.op, dst, z.a[ia+p0:], z.b[ib+p0:])
		case bc.aStill:
			zipRowsF32(z.op, dst, z.b[ib+p0:], z.a[ia:ia+bc.period], p0%bc.period, true)
		default:
			zipRowsF32(z.op, dst, z.a[ia+p0:], z.b[ib:ib+bc.period], p0%bc.period, false)
		}
		i, p0 = i+n, 0
		for k, x := range ax {
			ia, ib = ia+x.sa, ib+x.sb
			if pos[k]++; pos[k] < x.d {
				break
			}
			pos[k] = 0
			ia, ib = ia-x.d*x.sa, ib-x.d*x.sb
		}
	}
}

// zipF32 writes dst[i] = a[i] op b[i]: one typed loop per op, its body
// inline.
//
//np:hotpath
func zipF32(op binOp, dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	switch op {
	case opAdd:
		for i := range dst {
			dst[i] = a[i] + b[i]
		}
	case opSubtract:
		for i := range dst {
			dst[i] = a[i] - b[i]
		}
	case opMultiply:
		for i := range dst {
			dst[i] = a[i] * b[i]
		}
	case opDivide:
		for i := range dst {
			dst[i] = a[i] / b[i]
		}
	case opMaximum:
		for i := range dst {
			x, y := a[i], b[i]
			if x > y {
				y = x
			}
			dst[i] = y
		}
	default: // opMinimum
		for i := range dst {
			x, y := a[i], b[i]
			if x < y {
				y = x
			}
			dst[i] = y
		}
	}
}

// zipRepLen is the length zipRowsF32 repeats a short row to, so each zipF32
// call covers at least half of it: an 8-channel scale is zipped 64 elements
// at a time, not 8, and a scalar 64, not 1.
const zipRepLen = 64

// zipRowsF32 zips x against the row v repeated along it, for
// i < len(dst): dst[i] = x[i] op v[(ch+i) mod len(v)], or v[…] op x[i] with vFirst, so
// subtract and divide keep their operand order. x starts at element ch of a
// row (a parallel chunk need not start on a row boundary) and may end inside
// one.
//
//np:hotpath
func zipRowsF32(op binOp, dst, x, v []float32, ch int, vFirst bool) {
	x = x[:len(dst)]
	var rep [zipRepLen]float32
	if c := len(v); c <= zipRepLen/2 && len(x) > c-ch {
		// v repeated k times is the same periodic row: element i still
		// meets v[(ch+i) mod c].
		n := zipRepLen / c * c
		copy(rep[:c], v)
		for m := c; m < n; m *= 2 {
			copy(rep[m:n], rep[:m])
		}
		v = rep[:n]
	}
	for len(x) > 0 {
		n := min(len(v)-ch, len(x))
		if vFirst {
			zipF32(op, dst[:n], v[ch:ch+n], x)
		} else {
			zipF32(op, dst[:n], x, v[ch:ch+n])
		}
		x, dst, ch = x[n:], dst[n:], 0
	}
}

// maxBroadcastRank is how many axes a broadcaster keeps in its fixed table,
// so that building and walking one allocates nothing; a broadcast with more
// axes after merging (operands alternating, axis after axis, which one
// repeats) keeps them on the heap.
const maxBroadcastRank = 8

// bcAxis is one axis of a broadcast: its extent and each operand's element
// stride along it, zero where the operand repeats.
type bcAxis struct{ d, sa, sb int }

// broadcaster is a binary op's walk over its output. Its axes run innermost
// first, every output axis of extent one dropped and adjacent axes that the
// two operands walk alike merged, so equal shapes are one axis and a channel
// vector against an NHWC tensor two. The walk's rows are the first one or
// two of them: the innermost axis, and the next one too when both operands
// advance along the innermost — then the other repeats its row of the
// innermost along the next. An operand that repeats along a row has period
// elements in it: it is the row's still operand.
type broadcaster struct {
	d      int  // elements in a row
	period int  // the still operand's row length, 0 if both operands advance along the row
	aStill bool // the still operand is a, not b
	outer  int  // the first axis outside the row
	n      int
	fixed  [maxBroadcastRank]bcAxis
	more   []bcAxis // all n axes, when n > maxBroadcastRank
}

func newBroadcaster(a, b, out tensor.Shape) broadcaster {
	var bc broadcaster
	sa, sb := 1, 1 // each operand's stride along the next axis it does not repeat along
	for i := len(out) - 1; i >= 0; i-- {
		d := out[i]
		if d == 1 {
			continue
		}
		x := bcAxis{d: d}
		if extentAt(a, out, i) != 1 {
			x.sa, sa = sa, sa*d
		}
		if extentAt(b, out, i) != 1 {
			x.sb, sb = sb, sb*d
		}
		if ax := bc.axes(); bc.n > 0 && (ax[bc.n-1].sa == 0) == (x.sa == 0) && (ax[bc.n-1].sb == 0) == (x.sb == 0) {
			ax[bc.n-1].d *= d
			continue
		}
		switch {
		case bc.n < maxBroadcastRank:
			bc.fixed[bc.n] = x
		case bc.more == nil:
			bc.more = append(append([]bcAxis(nil), bc.fixed[:]...), x)
		default:
			bc.more = append(bc.more, x)
		}
		bc.n++
	}
	if bc.n == 0 {
		bc.fixed[0], bc.n = bcAxis{d: 1, sa: 1, sb: 1}, 1
	}
	ax := bc.axes()
	bc.d, bc.outer = ax[0].d, 1
	switch {
	case ax[0].sa == 0 || ax[0].sb == 0:
		bc.period, bc.aStill = 1, ax[0].sa == 0
	case bc.n > 1:
		// Merging left the next axis with one operand repeating along it.
		bc.d, bc.period, bc.aStill, bc.outer = ax[0].d*ax[1].d, ax[0].d, ax[1].sa == 0, 2
	}
	return bc
}

// extentAt is the extent of an operand of shape s along axis i of the
// output shape out it broadcasts to: s right-aligned, one where s has no
// axis.
func extentAt(s, out tensor.Shape, i int) int {
	if j := i - len(out) + len(s); j >= 0 {
		return s[j]
	}
	return 1
}

// axes is the broadcaster's axes, innermost first.
func (bc *broadcaster) axes() []bcAxis {
	if bc.more != nil {
		return bc.more
	}
	return bc.fixed[:bc.n]
}

// rowStart maps the flat output index flat to its position p0 in its row
// and the operands' indices at the start of that row, and stores the row's
// multi-index over the axes outside it in pos unless pos is nil.
func (bc *broadcaster) rowStart(flat int, pos []int) (p0, ia, ib int) {
	p0, flat = flat%bc.d, flat/bc.d
	for k, x := range bc.axes()[bc.outer:] {
		p := flat % x.d
		flat /= x.d
		ia += p * x.sa
		ib += p * x.sb
		if pos != nil {
			pos[k] = p
		}
	}
	return p0, ia, ib
}

// index maps the flat output index flat to flat indices into the two
// operands.
func (bc *broadcaster) index(flat int) (ia, ib int) {
	p0, ia, ib := bc.rowStart(flat, nil)
	switch {
	case bc.period == 0:
		return ia + p0, ib + p0
	case bc.aStill:
		return ia + p0%bc.period, ib + p0
	default:
		return ia + p0, ib + p0%bc.period
	}
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
		src := data.F32()
		biasRegion.Elems(len(src), biasArgs{res.F32(), src, bias.F32()[:c], inner})
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

var biasRegion = parallel.NewRegion(biasArgs.run)

// biasArgs is a float bias_add's chunk: bias has the axis' c values, each
// repeated over inner consecutive elements.
type biasArgs struct {
	dst, src, bias []float32
	inner          int
}

func (a biasArgs) run(lo, hi int) {
	c := len(a.bias)
	if a.inner == 1 {
		biasAddRows(a.dst[lo:hi], a.src[lo:hi], a.bias, lo%c)
		return
	}
	for i := lo; i < hi; i++ {
		a.dst[i] = a.src[i] + a.bias[(i/a.inner)%c]
	}
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
		shift[ch] = bt[ch] - float32(mn[ch]*s)
	}
	affineRegion.Elems(len(src), affineArgs{dst, src, scale, shift})
	return res, nil
}

var affineRegion = parallel.NewRegion(affineArgs.run)

// affineArgs is batch_norm's chunk: x·scale + shift per channel, the
// channel innermost.
type affineArgs struct{ dst, src, scale, shift []float32 }

func (a affineArgs) run(lo, hi int) {
	dst, src, scale, shift := a.dst, a.src, a.scale, a.shift
	for i := lo; i < hi; i++ {
		ch := i % len(scale)
		dst[i] = float32(src[i]*scale[ch]) + shift[ch]
	}
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
	src := data.F32()
	// An exp and a normalize an element: the cost model's transcendental
	// weight of eight (soc.MACs).
	softmaxRegion.Run(rows, 8*int64(len(src)), softmaxArgs{res.F32(), src, axisLen})
	return res, nil
}

var softmaxRegion = parallel.NewRegion(softmaxArgs.run)

// softmaxArgs is softmax's chunk: rows [lo, hi) of axisLen elements.
type softmaxArgs struct {
	dst, src []float32
	axisLen  int
}

func (a softmaxArgs) run(lo, hi int) {
	src, dst, axisLen := a.src, a.dst, a.axisLen
	for r := lo; r < hi; r++ {
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
	}
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
		clipRegion.Elems(len(src), clipArgs{newClampF32(float32(lo), float32(hi)), dst, src})
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

var clipRegion = parallel.NewRegion(clipArgs.run)

// clipArgs is clip's chunk.
type clipArgs struct {
	cl       clampF32
	dst, src []float32
}

func (a clipArgs) run(lo, hi int) { a.cl.rows(a.dst[lo:hi], a.src[lo:hi]) }

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
	src := in.F32()
	// size squares and a pow an element, as the cost model weighs it.
	lrnRegion.Run(rows, (int64(size)+4)*int64(len(src)),
		lrnArgs{res.F32(), src, c, size / 2, alpha, beta, bias})
	return res, nil
}

var lrnRegion = parallel.NewRegion(lrnArgs.run)

// lrnArgs is nn.lrn's chunk: rows [lo, hi) of c channels.
type lrnArgs struct {
	dst, src          []float32
	c, half           int
	alpha, beta, bias float64
}

func (a lrnArgs) run(lo, hi int) {
	src, dst, c := a.src, a.dst, a.c
	for r := lo; r < hi; r++ {
		base := r * c
		for ch := 0; ch < c; ch++ {
			var sq float64
			for j := ch - a.half; j <= ch+a.half; j++ {
				if j < 0 || j >= c {
					continue
				}
				v := float64(src[base+j])
				sq += float64(v * v)
			}
			dst[base+ch] = src[base+ch] / float32(math.Pow(a.bias+float64(a.alpha*sq), a.beta))
		}
	}
}

func leakyReLU(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	if err := wantArgs(args, 1, "nn.leaky_relu"); err != nil {
		return nil, err
	}
	alpha := float32(attrs.Float("alpha", 0.01))
	in := args[0]
	res := output(dstBuf, out)
	src := in.F32()
	leakyRegion.Elems(len(src), leakyArgs{res.F32(), src, alpha})
	return res, nil
}

var leakyRegion = parallel.NewRegion(leakyArgs.run)

// leakyArgs is leaky_relu's chunk.
type leakyArgs struct {
	dst, src []float32
	alpha    float32
}

func (a leakyArgs) run(lo, hi int) {
	dst, src, alpha := a.dst, a.src, a.alpha
	for i := lo; i < hi; i++ {
		v := src[i]
		if v < 0 {
			v *= alpha
		}
		dst[i] = v
	}
}

// sigmoidRows, tanhRows, expRows and sqrtRows are the transcendental map
// kernels' loops, each element widened to float64, mapped and rounded back.
//
//np:hotpath
func sigmoidRows(dst, src []float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
}

//np:hotpath
func tanhRows(dst, src []float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = float32(math.Tanh(float64(v)))
	}
}

//np:hotpath
func expRows(dst, src []float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = float32(math.Exp(float64(v)))
	}
}

//np:hotpath
func sqrtRows(dst, src []float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = float32(math.Sqrt(float64(v)))
	}
}

// copyRows is nn.dropout's loop: the inference-time identity.
func copyRows(dst, src []float32) { copy(dst, src) }

func init() {
	mapF32("nn.relu", reluClamp.rows)
	mapF32("sigmoid", sigmoidRows)
	mapF32("tanh", tanhRows)
	mapF32("exp", expRows)
	mapF32("sqrt", sqrtRows)
	mapF32("nn.dropout", copyRows)

	binaryF32("add", opAdd)
	binaryF32("subtract", opSubtract)
	binaryF32("multiply", opMultiply)
	binaryF32("divide", opDivide)
	binaryF32("maximum", opMaximum)
	binaryF32("minimum", opMinimum)

	Register("nn.bias_add", biasAdd)
	Register("nn.batch_norm", batchNorm)
	Register("nn.softmax", softmax)
	Register("clip", clipKernel)
	Register("nn.lrn", lrn)
	Register("nn.leaky_relu", leakyReLU)
}
