package topi

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Cache-blocked, register-tiled GEMM backing every convolution and dense
// launch. The computation is C[i][j] = Σ_k A[i][k]·B[j][k] (B holds filter
// rows, so the reduction runs over two row-major operands with contiguous
// K) — exactly the shape im2col produces.
//
// Blocking scheme:
//
//   - B is packed into NR-row panels (bp[(jt·k+kk)·NR+j], packPanels,
//     generic over the panel element). A is never packed: a tile reads its
//     four rows of A in place, through a table of runs — per segment one run
//     of each row, the segments laid end to end the row's k values in order.
//     The table is prepared once per launch as int32 element offsets from a
//     row origin, with a marker for the zero row (indirectTable,
//     conv_indirect.go; Dukhan, arXiv 1907.02129): a tile takes the data, the
//     origin, the zero row, its offsets and its segment length. A
//     convolution's offsets point into the image; a dense layer's row is
//     one segment, the input row itself (newDenseTable). The panel layout
//     is the same on every architecture and is never serialized.
//   - A float panel element is one float32. A quantized one is an i16x2: one
//     k-pair of (raw − zero point) values as two int16, so the same layout
//     over pairs holds, per k-pair, a B panel's 8 columns × 2 k, and a run of
//     A is a run of pairs. The reduction runs over pairs; a vector of odd
//     length (a filter tap's channels, a dense row) is padded with a zero
//     (rawMinusZpPairs).
//   - The tile keeps a full MR×NR accumulator tile and runs the K loop
//     unblocked. Each output cell owns exactly one accumulator that sums k
//     in ascending order, each step one multiply rounded to float32 and then
//     one add rounded to float32, so the result is bit-identical to the
//     naive single-accumulator dot product — the property the GEMM
//     equivalence tests pin (gemm_test.go).
//   - Weight panels are immutable per model, so they are packed once per
//     weight tensor (packedWeight, one generic type for both element types)
//     and stored on that tensor (Tensor.SetDerived): steady-state inference
//     packs nothing, and the panels go when the weight does.
//
// One tile family. Every f32 tile is 4 A rows by one or more whole adjacent
// B panels of gemmNR = 8 columns, over the same panel layout: panel jt+1
// starts where panel jt ends, so a tile that spans p panels reads p forward
// streams of B. Every tile vectorises across N — one lane per output cell,
// every cell's reduction serial in k — which is what makes a vector tile,
// at any width, bit-equal to the scalar loops. Every tile multiplies (MULPS)
// and then adds (ADDPS), never a fused multiply-add: an FMA rounds once
// where every other kernel in the repo (the direct convolution, the
// interpreter reference, gemmIndirectF32Go below) rounds twice, and would
// break every bitwise pin (`make no-fma` scans the package for one). The Go
// compiler fuses x*y + z on its own where the target has the instruction, as
// on arm64, so every Go loop that multiplies and then adds writes the product
// as an explicit conversion, float32(x*y), which the language defines to
// round: `make no-fma` scans the arm64 listing of this package and of
// tensor, video and app for a fused instruction. At the store the f32 tile
// adds a bias and clamps to the activation's bounds (epilogueF32's), so a
// float convolution or dense layer makes no second pass over its output. On
// amd64 the tiles are assembly (gemm_amd64.s):
//
//   - YMM, 4×16 over two panels, where the CPU has AVX and the OS saves YMM
//     state: eight YMM accumulators, two per A row; each k step two B loads
//     and four broadcasts. Eight independent add chains hide VADDPS's
//     latency, where one accumulator per row (4×8) leaves it exposed.
//   - AVX, 4×8 over one panel: four YMM accumulators. It runs only for a
//     last panel the YMM tile leaves.
//   - SSE2, the amd64 baseline, 4×8 in eight XMM accumulators: the tile of a
//     CPU without AVX. (The Go tile in its place is 1.3–3.3× slower on the
//     im2col convolutions.)
//
// Which tiles run is read once at init from CPUID and XGETBV (package cpuid)
// into cpuid.AVX and gemmWidePanels (gemm_amd64.go); nothing can force or
// forbid a tile. A 4×32 ZMM tile over four panels was measured and left out
// (gemmWidePanels says why). Everywhere else the tile is gemmIndirectF32Go;
// the tests hold each assembly tile, panel by panel, to it and to the naive
// loop.
//
// The panel walk (indirectPanelsF32) takes the widest tile that fits the
// panels left in its range — gemmWidePanels of them, else one — and sweeps
// every row tile against it before moving on, so its B panels stay hot
// across the rows. A dense launch splits the panels into chunks of whole
// groups of gemmWidePanels, so only the chunk that ends at n has a tail.
//
// The quantized tile, serving qnn.conv2d, qnn.dense and their fused launches
// alike, is 4×8 int32 sums over the pair panels. On amd64 it is PMADDWD
// (gemm_amd64.s, baseline SSE2, so no feature test): per k-pair a PSHUFD
// broadcast of each row's pair, two B loads, eight PMADDWDs and eight PADDDs
// into eight XMM accumulators; everywhere else, and as its oracle,
// gemmIndirectI16Go. It is exact: qnn data and weight are 8-bit and their
// zero points values of their dtypes (relay.CheckQnnZeroPoints), so every
// (raw − zp) lies in [−255, 255] and fits int16, a pair product-sum is at
// most 2·255² and fits int32, and wrapping int32 addition is associative,
// so summing by pairs equals the naive k-ascending int32 loop bit for bit.
// The tiles and the panel loops that call them are the only
// per-element-type code here.
//
// The quantized depthwise row (depthwiseRowQnn, conv.go) is not a GEMM but
// rests on the same exactness: it widens its operands where it loads them,
// the raw 8-bit image in place through a prepared tap table, interleaves
// each pair of taps' (raw − zp) values into k-pairs, and multiplies them
// against the filter's pair-major form with PMADDWD's lane operation —
// on amd64 one VPMADDWD per eight channels of a tap pair (gemm_amd64.s).
//
// Parallelism: a convolution splits its output rows, and each row's panel
// walk runs on the worker that owns the row. A dense launch (denseGemmF32,
// denseGemmI32) launches its N-panel loop as a parallel.Region with the
// block's MACs as its work estimate: under an already split wavefront level
// the budget is exhausted and the panels run serially on the caller, at top
// level with enough work they are split across the free workers. Neither
// allocates.

// Register tile shape of both element types: MR rows of A against NR rows of
// B (output channels). NR is one 8-lane YMM vector, or two 4-lane XMM
// vectors, of float32 or of int32 sums.
const (
	gemmMR = 4
	gemmNR = 8
)

// gemmWideNR is the widest f32 tile's column count, two panels: it sizes the
// accumulator buffer every f32 tile writes into.
const gemmWideNR = 2 * gemmNR

func gemmTiles(x, tile int) int { return (x + tile - 1) / tile }

// packPanels packs the first rows rows of src (k elements each, row stride
// ld) into panels width rows wide, interleaved by k: row t·width+i lands at
// dst[(t·k+kk)·width+i]. The tail rows of the last panel are zero-filled
// (they are computed but never written back). Only weights are packed, once
// each (packWeight).
func packPanels[T panelElem](dst, src []T, rows, k, ld, width int) {
	for t := 0; t*width < rows; t++ {
		for i := 0; i < width; i++ {
			row, d := t*width+i, t*k*width+i
			if row >= rows {
				for kk := 0; kk < k; kk++ {
					dst[d] = 0
					d += width
				}
				continue
			}
			for _, v := range src[row*ld : row*ld+k] {
				dst[d] = v
				d += width
			}
		}
	}
}

// gemmIndirectF32Go computes one 4×8 f32 tile in portable Go over a table
// of A rows' runs: offs holds, per segment s, the entries offs[4s+i] of tile
// row i — each the run of seg values of a at base+offs[4s+i], or of the zero
// row where the entry is zeroRun — and the segments laid end to end are the
// tile's k = seg·len(offs)/4, against which bp holds one panel of 8k values.
// Then, at the store, each cell gets bias[j] added (bias nil: none) and is
// clamped to [lo, hi] — v < lo becomes lo, then v > hi becomes hi, as
// clampF32 does: acc[i·8+j] = clamp(Σ_kk A_i[kk]·bp[kk·8+j] + bias[j]). It
// is the tile on every architecture but amd64, and the oracle for the
// assembly there. The tile is walked as four 4×2 column pairs — eight
// accumulators and six operands, which stay in registers on a 16-register
// machine where 32 accumulators would spill on every step. Each cell is one
// accumulator with k ascending, product then sum, so it is bit-identical to
// the naive dot product of the same rows.
//
//np:hotpath
func gemmIndirectF32Go(a []float32, base int, zero []float32, offs []int32, seg int, bp []float32, bias *[gemmWideNR]float32, lo, hi float32, acc *[gemmMR * gemmNR]float32) {
	for j := 0; j < gemmNR; j += 2 {
		var c00, c01 float32
		var c10, c11 float32
		var c20, c21 float32
		var c30, c31 float32
		b := bp
		for s := 0; s+gemmMR <= len(offs); s += gemmMR {
			r0 := tableRun(a, base, zero, offs[s], seg)
			r1 := tableRun(a, base, zero, offs[s+1], seg)[:len(r0)]
			r2 := tableRun(a, base, zero, offs[s+2], seg)[:len(r0)]
			r3 := tableRun(a, base, zero, offs[s+3], seg)[:len(r0)]
			for l, a0 := range r0 {
				a1, a2, a3 := r1[l], r2[l], r3[l]
				b0, b1 := b[j], b[j+1]
				c00 += float32(a0 * b0)
				c01 += float32(a0 * b1)
				c10 += float32(a1 * b0)
				c11 += float32(a1 * b1)
				c20 += float32(a2 * b0)
				c21 += float32(a2 * b1)
				c30 += float32(a3 * b0)
				c31 += float32(a3 * b1)
				b = b[gemmNR:]
			}
		}
		acc[0*gemmNR+j], acc[0*gemmNR+j+1] = c00, c01
		acc[1*gemmNR+j], acc[1*gemmNR+j+1] = c10, c11
		acc[2*gemmNR+j], acc[2*gemmNR+j+1] = c20, c21
		acc[3*gemmNR+j], acc[3*gemmNR+j+1] = c30, c31
	}
	for c, v := range acc {
		if bias != nil {
			v += bias[c%gemmNR]
		}
		if v < lo {
			v = lo
		}
		if v > hi {
			v = hi
		}
		acc[c] = v
	}
}

// tableRun is the run a table entry names: seg values of a from base+off,
// or of the zero row where off is zeroRun.
func tableRun[T any](a []T, base int, zero []T, off int32, seg int) []T {
	if off < 0 {
		return zero[:seg]
	}
	return a[base+int(off):][:seg]
}

// ---- quantized variant: int16 pair panels, int32 accumulators ----

// i16x2 is one k-pair of a quantized operand: two int16 values of
// (raw − zero point), the even k in the low half. The quantized panels are
// built of these units exactly as the float panels are built of float32
// values — packPanels moves whole pairs — so a B panel holds, per k-pair,
// the eight columns' pairs, and a run of A a row's pairs.
type i16x2 uint32

// pairOf packs two (raw − zp) values into one unit.
func pairOf(lo, hi int32) i16x2 { return i16x2(uint16(lo)) | i16x2(uint16(hi))<<16 }

// dot is the unit's pair product-sum, PMADDWD's per-lane operation.
func (u i16x2) dot(v i16x2) int32 {
	return int32(int16(u))*int32(int16(v)) + int32(int16(u>>16))*int32(int16(v>>16))
}

// gemmIndirectI16Go computes one 4×8 tile of int32 sums in portable Go over
// a table laid out as gemmIndirectF32Go's: per segment the four rows' runs
// of seg k-pairs, the segments laid end to end the tile's kp pairs, bp one
// panel of 8kp pairs, each term one pair product-sum:
// acc[i·8+j] = Σ_p A_i[p]·bp[p·8+j]. It is the quantized tile on every
// architecture but amd64 and the oracle for the assembly there; its sums are
// stored as they are.
//
//np:hotpath
func gemmIndirectI16Go(a []i16x2, base int, zero []i16x2, offs []int32, seg int, bp []i16x2, acc *[gemmMR * gemmNR]int32) {
	for j := 0; j < gemmNR; j += 2 {
		var c00, c01 int32
		var c10, c11 int32
		var c20, c21 int32
		var c30, c31 int32
		b := bp
		for s := 0; s+gemmMR <= len(offs); s += gemmMR {
			r0 := tableRun(a, base, zero, offs[s], seg)
			r1 := tableRun(a, base, zero, offs[s+1], seg)[:len(r0)]
			r2 := tableRun(a, base, zero, offs[s+2], seg)[:len(r0)]
			r3 := tableRun(a, base, zero, offs[s+3], seg)[:len(r0)]
			for l, a0 := range r0 {
				a1, a2, a3 := r1[l], r2[l], r3[l]
				b0, b1 := b[j], b[j+1]
				c00 += a0.dot(b0)
				c01 += a0.dot(b1)
				c10 += a1.dot(b0)
				c11 += a1.dot(b1)
				c20 += a2.dot(b0)
				c21 += a2.dot(b1)
				c30 += a3.dot(b0)
				c31 += a3.dot(b1)
				b = b[gemmNR:]
			}
		}
		acc[0*gemmNR+j], acc[0*gemmNR+j+1] = c00, c01
		acc[1*gemmNR+j], acc[1*gemmNR+j+1] = c10, c11
		acc[2*gemmNR+j], acc[2*gemmNR+j+1] = c20, c21
		acc[3*gemmNR+j], acc[3*gemmNR+j+1] = c30, c31
	}
}

// ---- packed weight panels ----
//
// Convolution and dense weights are module constants: pack them once per
// weight tensor and keep the panels on the tensor itself (Tensor.Derived),
// so they live exactly as long as the constant — and so as long as the
// module that owns it. A weight used with a grouping or zero point other
// than the one its panels were packed with (which real models never do)
// packs afresh each time and leaves the stored panels alone.

// panelElem is the element of a GEMM panel: a float32, or a quantized
// operand's k-pair.
type panelElem interface{ float32 | i16x2 }

// packedWeight is one weight tensor's panels: for each of groups groups,
// ceil(ocg/nr)·nr rows of k elements packed at width nr, glen elements.
// Quantized weights are packed as (raw − zp) pairs.
type packedWeight[T panelElem] struct {
	groups, glen int
	zp           int32
	data         []T
}

// packWeight packs w — oc rows of k = len(w)/oc elements, split into
// groups — at width nr.
func packWeight[T panelElem](w []T, oc, groups, nr int, zp int32) *packedWeight[T] {
	k, ocg := len(w)/oc, oc/groups
	glen := gemmTiles(ocg, nr) * nr * k
	pw := &packedWeight[T]{groups: groups, glen: glen, zp: zp, data: make([]T, groups*glen)}
	for g := 0; g < groups; g++ {
		packPanels(pw.data[g*glen:(g+1)*glen], w[g*ocg*k:], ocg, k, k, nr)
	}
	return pw
}

// group returns the panel slice for group g.
func (pw *packedWeight[T]) group(g int) []T { return pw.data[g*pw.glen : (g+1)*pw.glen] }

// weightPanels returns the panels stored on w when they were packed with
// the same grouping and zero point, else nil.
//
//np:hotpath
func weightPanels[T panelElem](w *tensor.Tensor, groups int, zp int32) *packedWeight[T] {
	if pw, ok := w.Derived().(*packedWeight[T]); ok && pw.groups == groups && pw.zp == zp {
		return pw
	}
	return nil
}

// packedConvWeightF32 returns the panels of a float weight tensor — OHWI
// filters or the rows of a dense weight, oc = w.Shape[0] rows of the
// remaining elements — split into groups.
func packedConvWeightF32(w *tensor.Tensor, groups int) *packedWeight[float32] {
	if pw := weightPanels[float32](w, groups, 0); pw != nil {
		return pw
	}
	pw := packWeight(w.F32(), w.Shape[0], groups, gemmNR, 0)
	w.SetDerived(pw)
	return pw
}

// packedConvWeightI32 returns the (raw − zero_point) pair panels of a
// quantized weight tensor, its innermost vectors (a filter tap's channels, a
// dense row) each padded to an even length (rawMinusZpPairs).
func packedConvWeightI32(w *tensor.Tensor, groups int, zp int32) (*packedWeight[i16x2], error) {
	if pw := weightPanels[i16x2](w, groups, zp); pw != nil {
		return pw, nil
	}
	vec := w.Shape[len(w.Shape)-1]
	rawP := scratchPairs.get(w.Elems() / vec * pairsOf(vec))
	defer scratchPairs.put(rawP)
	if err := rawMinusZpPairs(*rawP, w, zp, vec); err != nil {
		return nil, err
	}
	pw := packWeight(*rawP, w.Shape[0], groups, gemmNR, zp)
	w.SetDerived(pw)
	return pw, nil
}

// pairsOf is the number of k-pairs that hold n values.
func pairsOf(n int) int { return (n + 1) / 2 }

// rawMinusZpPairs widens a quantized tensor's raw values into k-pairs of
// (raw − zero point): t's raw values, read as consecutive vectors of vec,
// each become pairsOf(vec) units of dst, a vector of odd length padded with
// a zero. It is a parallel launch over the vectors, one MAC-equivalent a
// value, so a tensor large enough to pay for a split is widened by the
// helper pool instead of on the caller alone. With vec a convolution's
// per-group channel count the padding is per tap, so a pair never straddles
// two taps and the patch pack moves whole pairs; the zero meets a zero
// weight pad, so the sums are those of the unpadded reduction. The launch
// splits over whole vectors, so no pair straddles two chunks either.
func rawMinusZpPairs(dst []i16x2, t *tensor.Tensor, zp int32, vec int) error {
	switch t.DType {
	case tensor.UInt8:
		src := t.U8()
		widenPairsRegionU8.Run(len(src)/vec, int64(len(src)), widenPairsArgs[uint8]{dst, src, zp, vec})
	case tensor.Int8:
		src := t.I8()
		widenPairsRegionI8.Run(len(src)/vec, int64(len(src)), widenPairsArgs[int8]{dst, src, zp, vec})
	default:
		return fmt.Errorf("quantized kernel on %s tensor", t.DType)
	}
	return nil
}

var (
	widenPairsRegionU8 = parallel.NewRegion(widenPairsArgs[uint8].run)
	widenPairsRegionI8 = parallel.NewRegion(widenPairsArgs[int8].run)
)

// widenPairsArgs is rawMinusZpPairs' chunk: vectors [lo, hi).
type widenPairsArgs[T uint8 | int8] struct {
	dst []i16x2
	src []T
	zp  int32
	vec int
}

func (a widenPairsArgs[T]) run(lo, hi int) {
	vp := pairsOf(a.vec)
	widenPairs(a.dst[lo*vp:hi*vp], a.src[lo*a.vec:hi*a.vec], a.zp, a.vec)
}

// widenPairs widens whole vectors of vec raw values of src into
// pairsOf(vec) k-pairs each of dst. An even vec pads nothing, so its
// vectors are one run of pairs — in memory, the raw values widened to int16
// minus zp in order, which where the CPU has AVX2 widenPairsVec writes 16
// values at a time, leaving widenEvenPairs the tail. An odd one ends each
// vector in a pair padded with a zero.
//
//np:hotpath
func widenPairs[T uint8 | int8](dst []i16x2, src []T, zp int32, vec int) {
	if vec%2 == 0 {
		n := widenPairsVec(dst, src, zp)
		widenEvenPairs(dst[n/2:], src[n:], zp)
		return
	}
	vp := pairsOf(vec)
	for ; len(src) >= vec; src, dst = src[vec:], dst[vp:] {
		s, d := src[:vec], dst[:vp]
		for j := 0; j < vec/2; j++ {
			d[j] = pairOf(int32(s[2*j])-zp, int32(s[2*j+1])-zp)
		}
		d[vp-1] = pairOf(int32(s[vec-1])-zp, 0)
	}
}

// widenEvenPairs widens the even-length run src into len(src)/2 k-pairs of
// dst, one pair at a time: the portable body of widenPairs on an even
// vector, its tail on amd64, and the oracle of widenPairsVec.
//
//np:hotpath
func widenEvenPairs[T uint8 | int8](dst []i16x2, src []T, zp int32) {
	dst = dst[:len(src)/2]
	for j := range dst {
		s := src[2*j : 2*j+2 : 2*j+2]
		dst[j] = pairOf(int32(s[0])-zp, int32(s[1])-zp)
	}
}
