package topi

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/tensor"
)

// Indirect convolution (Dukhan, arXiv 1907.02129; the XNNPACK design). The
// convolution runs as a register-tiled GEMM (gemm.go) against the weight's
// packed panels, but never materializes the patch matrix: the tile reads
// its four output pixels' patches from the image in place, through a table
// of element offsets built once, when the launch is prepared
// (newConvTable), and valid for any input tensor of the prepared shape.
// Every convolution launch — nn.conv2d, qnn.conv2d, qnn.conv2d_fused —
// selects it through im2colPays, the one strategy rule; the name keeps
// "im2col" because the tile sees exactly the im2col patch matrix, only
// without the copy. A dense layer runs on the same tiles, each of its rows
// one segment (newDenseTable).

// im2colPays is the built-in strategy rule, for both element types: every
// convolution but a depthwise one — one input and one output channel per
// group — runs on the indirect GEMM, and a depthwise one on the direct
// channel-vector row (depthwiseRow, depthwiseRowQnn). The tile's eight lanes are eight
// output channels of one group, so on a depthwise layer seven of every
// eight lanes are padding, and BenchmarkConvStrategy has the direct row
// ahead at every volume. On every other shape measured — a single filter
// and a tiny layer included — the tile is ahead, except a float grouped
// layer with one output channel per group (DESIGN.md §11).
func im2colPays(weight tensor.Shape, groups int) bool {
	return weight[3] != 1 || weight[0] != groups
}

// zeroRun is the table entry of a run that reads the zero row.
const zeroRun = -1

// indirectTable is the A side of an indirect GEMM, prepared once per
// launch. Row tile t covers four A rows — output pixels ox = 4t…4t+3 of
// one output row, or dense rows 4t…4t+3 — and its table lists, segment by
// segment, the four rows' runs: entry 4s+i is row i's run in segment s, an
// int32 element offset from the origin the launch supplies at run, or
// zeroRun. A segment's four runs are seg[t] values each, and the segments'
// runs laid end to end are the row's patch in the weight panel's k order.
//
// A convolution measures its offsets from an output row's input origin —
// the image element at (iy, ix) = (oy·sh − padT, −padL) of the row's batch,
// shifted by grp·icg for group grp — so every output row whose filter rows
// fall inside the image alike shares one table: there is one table per
// vertical-padding class of rows (class). A dense layer has one class, its
// offsets r·lda from the data's start.
type indirectTable[T panelElem] struct {
	offs  []int32 // the classes' tables back to back, per entries each
	per   int
	class []int32 // output row oy's class (a convolution's; nil for dense)
	start []int32 // tile t's entries are [start[t], start[t+1]) of a class's table
	seg   []int32 // tile t's segment length
	zero  []T     // the zero row, as long as the longest segment (nil for dense)
}

// classOffs returns class cls's table.
func (t *indirectTable[T]) classOffs(cls int) []int32 {
	return t.offs[cls*t.per : (cls+1)*t.per]
}

// bytes is what the table holds, none for no table; both panel elements
// are four bytes.
func (t *indirectTable[T]) bytes() int {
	if t == nil {
		return 0
	}
	return 4 * (len(t.offs) + len(t.class) + len(t.start) + len(t.seg) + len(t.zero))
}

// newConvTable builds the table of every output row of g:
//
//   - with one group and no horizontal dilation, a filter row of a patch is
//     one contiguous run of kw·c image values. A tile whose four pixels all
//     have their filter rows inside the image horizontally has kh segments
//     of kw·c;
//   - any other tile — at the left or right edge, or on a grouped or
//     horizontally dilated geometry — has kh·kw segments of one tap's icg
//     channels each.
//
// A segment in the padding (a row above or below the image, a tap left or
// right of it) and every segment of a pixel past ow reads the shared zero
// row, so it contributes exact zero terms; on quantized data, widened to
// (raw − zp) k-pairs over the pairs() geometry, that is the QNN
// pad-with-zero-point convention. The offsets must fit int32.
func newConvTable[T panelElem](g *convGeom) (*indirectTable[T], error) {
	// The largest offset is the last filter row's last tap of the last
	// pixel.
	if reach := (int64(g.kh-1)*int64(g.dh)*int64(g.w) + int64(g.ow)*int64(g.sw) + int64(g.kw)*int64(g.dw)) * int64(g.c); reach > math.MaxInt32 {
		return nil, fmt.Errorf("convolution over %d×%d×%d reaches offset %d, past int32", g.h, g.w, g.c, reach)
	}
	tiles := gemmTiles(g.ow, gemmMR)
	t := &indirectTable[T]{start: make([]int32, tiles+1), seg: make([]int32, tiles)}
	longest := 0
	for tt := range t.seg {
		n := g.kh * g.kw * gemmMR
		t.seg[tt] = int32(g.icg)
		if g.runsTile(tt) {
			n, t.seg[tt] = g.kh*gemmMR, int32(g.kw*g.c)
		}
		t.start[tt+1] = t.start[tt] + int32(n)
		longest = max(longest, int(t.seg[tt]))
	}
	t.per, t.zero = int(t.start[tiles]), make([]T, longest)
	var spans [][2]int
	t.class, spans = paddingClasses(g.oh, g.sh, g.padT, g.kh, g.dh, g.h)
	t.offs = make([]int32, len(spans)*t.per)
	for cls, s := range spans {
		t.fillConv(t.classOffs(cls), g, s[0], s[1])
	}
	return t, nil
}

// paddingClasses groups the n output positions along one axis of a
// convolution — stride s, padding pad before the image, a filter of k taps
// dilated by d, an image extent of size — by the range [lo, hi) of their
// taps that fall inside the image: class[i] is position i's class, numbered
// in order of first appearance, and spans[cls] is its range.
func paddingClasses(n, s, pad, k, d, size int) (class []int32, spans [][2]int) {
	class = make([]int32, n)
	for i := range class {
		lo, hi := k, 0
		for kk := 0; kk < k; kk++ {
			if x := i*s - pad + kk*d; x >= 0 && x < size {
				lo, hi = min(lo, kk), kk+1
			}
		}
		cls := slices.Index(spans, [2]int{lo, hi})
		if cls < 0 {
			cls, spans = len(spans), append(spans, [2]int{lo, hi})
		}
		class[i] = int32(cls)
	}
	return class, spans
}

// runsTile reports whether row tile tt of g reads kh runs of kw·c values:
// one group, no horizontal dilation, and all four pixels' filter rows
// inside the image horizontally.
func (g *convGeom) runsTile(tt int) bool {
	ox0 := tt * gemmMR
	last := min(ox0+gemmMR, g.ow) - 1
	return g.groups == 1 && g.dw == 1 && ox0*g.sw-g.padL >= 0 && last*g.sw-g.padL+g.kw <= g.w
}

// fillConv writes the table of the rows whose filter rows ky ∈ [lo, hi) lie
// inside the image into dst.
func (t *indirectTable[T]) fillConv(dst []int32, g *convGeom, lo, hi int) {
	n := 0
	for tt := range t.seg {
		ox0 := tt * gemmMR
		runs, taps := g.runsTile(tt), g.kw
		if runs {
			taps = 1
		}
		for ky := 0; ky < g.kh; ky++ {
			for tap := 0; tap < taps; tap++ {
				for i := 0; i < gemmMR; i++ {
					ox := ox0 + i
					ix := ox*g.sw - g.padL + tap*g.dw
					off := zeroRun
					if ox < g.ow && ky >= lo && ky < hi && (runs || ix >= 0 && ix < g.w) {
						off = (ky*g.dh*g.w + ix + g.padL) * g.c
					}
					dst[n] = int32(off)
					n++
				}
			}
		}
	}
}

// origin is output row job's (= b·oh + oy) input origin, the element its
// table's offsets are measured from.
func (g *convGeom) origin(job int) int {
	b, oy := job/g.oh, job%g.oh
	return ((b*g.h+oy*g.sh-g.padT)*g.w - g.padL) * g.c
}

// newDenseTable builds the table of a dense layer's m rows of k values,
// row stride lda: tile t lists rows 4t…4t+3, each one segment, the row
// itself — the input row is the patch. A row past m repeats row m−1; its
// cells are computed and never stored, so a dense table needs no zero row.
func newDenseTable[T panelElem](m, k, lda int) (*indirectTable[T], error) {
	if int64(m)*int64(lda) > math.MaxInt32 {
		return nil, fmt.Errorf("%d rows of stride %d are too many for an int32 offset table", m, lda)
	}
	tiles := gemmTiles(m, gemmMR)
	t := &indirectTable[T]{per: tiles * gemmMR, offs: make([]int32, tiles*gemmMR),
		start: make([]int32, tiles+1), seg: make([]int32, tiles)}
	for r := range t.offs {
		t.offs[r] = int32(min(r, m-1) * lda)
	}
	for tt := range t.seg {
		t.start[tt+1], t.seg[tt] = int32((tt+1)*gemmMR), int32(k)
	}
	return t, nil
}

// tileRows is the A side of one output row's tiles (or a dense layer's):
// its class's table of tab, read over a from origin base.
type tileRows[T panelElem] struct {
	tab  *indirectTable[T]
	offs []int32
	a    []T
	base int
}

// convRow is output row job's (= b·oh + oy) tiles of g over a, from group
// 0's origin; group grp's origin is grp·icg further.
func (t *indirectTable[T]) convRow(g *convGeom, a []T, job int) tileRows[T] {
	return tileRows[T]{tab: t, offs: t.classOffs(int(t.class[job%g.oh])), a: a, base: g.origin(job)}
}

// tile returns row tile it's entries and segment length.
func (r *tileRows[T]) tile(it int) ([]int32, int) {
	return r.offs[r.tab.start[it]:r.tab.start[it+1]], int(r.tab.seg[it])
}

// storeBounds is the clamp a float tile applies at its store: the
// activation's bounds, or (−Inf, +Inf), which leaves every value — NaN and
// −0 included — as it is.
func (e *epilogueF32) storeBounds() (lo, hi float32) {
	if e.act {
		return e.clamp.lo, e.clamp.hi
	}
	return float32(math.Inf(-1)), float32(math.Inf(1))
}

// indirectPanelsF32 runs every N-panel of one group's packed weight (n
// channels, k values a patch) against the row tiles of rows — one output
// row of ow pixels, or a dense layer's ow rows — and stores the ow×n block
// into c, row stride ldc, with ep's bias (from channel ch0 on) and clamp
// applied to the accumulators at the store.
// It takes the widest tile that fits the panels left — gemmWidePanels
// adjacent panels, or one — and sweeps every tile against it, so its
// panels stay hot across the row.
//
//np:hotpath
func indirectPanelsF32(rows *tileRows[float32], bpack, c []float32, ow, n, k, ldc int, ep *epilogueF32, ch0 int) {
	nt := gemmTiles(n, gemmNR)
	lo, hi := ep.storeBounds()
	var acc [gemmMR * gemmWideNR]float32
	for jt := 0; jt < nt; {
		w := min(gemmWidePanels, nt-jt)
		bp := bpack[jt*k*gemmNR : (jt+w)*k*gemmNR]
		nj, ld := min(w*gemmNR, n-jt*gemmNR), w*gemmNR
		var bias *[gemmWideNR]float32
		var bb [gemmWideNR]float32
		if ep.bias != nil {
			copy(bb[:nj], ep.bias[ch0+jt*gemmNR:])
			bias = &bb
		}
		for it := range rows.tab.seg {
			offs, seg := rows.tile(it)
			gemmIndirectF32(w, rows.a, rows.base, rows.tab.zero, offs, seg, bp, bias, lo, hi, &acc)
			mi := min(gemmMR, ow-it*gemmMR)
			for i := 0; i < mi; i++ {
				copy(c[(it*gemmMR+i)*ldc+jt*gemmNR:][:nj], acc[i*ld:])
			}
		}
		jt += w
	}
}

// indirectPanelsI32 is indirectPanelsF32 for the quantized operands: int32
// sums over kp k-pairs a patch, stored as they are — the requantize
// epilogue runs over the whole block afterwards.
//
//np:hotpath
func indirectPanelsI32(rows *tileRows[i16x2], bpack []i16x2, c []int32, ow, n, kp, ldc int) {
	var acc [gemmMR * gemmNR]int32
	for jt := 0; jt < gemmTiles(n, gemmNR); jt++ {
		bp := bpack[jt*kp*gemmNR : (jt+1)*kp*gemmNR]
		nj := min(gemmNR, n-jt*gemmNR)
		for it := range rows.tab.seg {
			offs, seg := rows.tile(it)
			gemmIndirectI16(rows.a, rows.base, rows.tab.zero, offs, seg, bp, &acc)
			mi := min(gemmMR, ow-it*gemmMR)
			for i := 0; i < mi; i++ {
				copy(c[(it*gemmMR+i)*ldc+jt*gemmNR:][:nj], acc[i*gemmNR:])
			}
		}
	}
}
