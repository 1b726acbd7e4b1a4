package topi

import (
	"math"
	"sync"

	"repro/internal/tensor"
)

// Indirect convolution (Dukhan, arXiv 1907.02129; the XNNPACK design). The
// convolution runs as a register-tiled GEMM (gemm.go) against the weight's
// packed panels, but never materializes the patch matrix: the tile reads
// its four output pixels' patches from the image in place, through a table
// of runs built once per output row (indirectRow). Every convolution launch
// — nn.conv2d, qnn.conv2d, qnn.conv2d_fused — selects it through
// im2colPays, the one strategy rule; the name keeps "im2col" because the
// tile sees exactly the im2col patch matrix, only without the copy. A dense
// layer runs on the same tiles, each of its rows one segment (denseRows).

// im2colPays is the built-in strategy rule, for both element types: every
// convolution but a depthwise one — one input and one output channel per
// group — runs on the indirect GEMM, and a depthwise one on the direct
// channel-vector row (depthwiseRow). The tile's eight lanes are eight
// output channels of one group, so on a depthwise layer seven of every
// eight lanes are padding, and BenchmarkConvStrategy has the direct row
// ahead at every volume. On every other shape measured — a single filter
// and a tiny layer included — the tile is ahead, except a float grouped
// layer with one output channel per group (DESIGN.md §11).
func im2colPays(weight tensor.Shape, groups int) bool {
	return weight[3] != 1 || weight[0] != groups
}

// indirectScratch is one launch's or one worker's indirection state: the
// row table, its per-tile views, and the zero row every tap in the padding
// points at. A convolution worker and a dense launch draw it from the same
// pools.
type indirectScratch[T panelElem] struct {
	tab   [][]T
	tiles [][][]T
	zero  []T
}

var (
	indirectPoolF32   sync.Pool // *indirectScratch[float32]
	indirectPoolPairs sync.Pool // *indirectScratch[i16x2]
)

// getIndirect returns pooled indirection state for tiles tiles of segs
// segments each and a zero row of zero values; return it to p when done.
// The zero row is only ever read, so a recycled one is still zero.
func getIndirect[T panelElem](p *sync.Pool, tiles, segs, zero int) *indirectScratch[T] {
	s, _ := p.Get().(*indirectScratch[T])
	if s == nil {
		s = new(indirectScratch[T])
	}
	if n := tiles * segs * gemmMR; cap(s.tab) < n {
		s.tab = make([][]T, n)
	}
	if cap(s.tiles) < tiles {
		s.tiles = make([][][]T, tiles)
	}
	if len(s.zero) < zero {
		s.zero = make([]T, zero)
	}
	s.tiles = s.tiles[:tiles]
	return s
}

// getConvIndirect is getIndirect sized for one output row of g.
func getConvIndirect[T panelElem](p *sync.Pool, g *convGeom) *indirectScratch[T] {
	return getIndirect[T](p, gemmTiles(g.ow, gemmMR), g.kh*g.kw, g.kw*g.icg)
}

// indirectRow fills s.tiles with output row job's tiles for group grp. Tile
// t covers output pixels ox = 4t…4t+3; its table lists, segment by segment,
// the four pixels' runs, rows[4s+i] for pixel i, each as long as the
// segment and all four equally long. The segments' runs laid end to end are
// the pixel's patch in the weight panel's k order — (ky, kx, ic) ascending —
// so the tile meets every product in the order of the packed panel it
// replaces:
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
// right of it) and every segment of a pixel past ow points at the shared
// zero row, so it contributes exact zero terms; on quantized data, widened
// to (raw − zp) k-pairs over the pairs() geometry, that is the QNN
// pad-with-zero-point convention.
func indirectRow[T panelElem](s *indirectScratch[T], din []T, g *convGeom, job, grp int) {
	h, w, c, kh, kw, icg := g.h, g.w, g.c, g.kh, g.kw, g.icg
	b, oy := job/g.oh, job%g.oh
	runs := g.groups == 1 && g.dw == 1
	tab := s.tab
	n := 0
	for t := range s.tiles {
		start, ox0 := n, t*gemmMR
		last := min(ox0+gemmMR, g.ow) - 1
		if runs && ox0*g.sw-g.padL >= 0 && last*g.sw-g.padL+kw <= w {
			run := kw * c
			for ky := 0; ky < kh; ky++ {
				iy := oy*g.sh - g.padT + ky*g.dh
				for i := 0; i < gemmMR; i++ {
					ox := ox0 + i
					if ox >= g.ow || iy < 0 || iy >= h {
						tab[n] = s.zero[:run]
					} else {
						p := ((b*h+iy)*w + ox*g.sw - g.padL) * c
						tab[n] = din[p : p+run]
					}
					n++
				}
			}
		} else {
			for ky := 0; ky < kh; ky++ {
				iy := oy*g.sh - g.padT + ky*g.dh
				for kx := 0; kx < kw; kx++ {
					for i := 0; i < gemmMR; i++ {
						ox := ox0 + i
						ix := ox*g.sw - g.padL + kx*g.dw
						if ox >= g.ow || iy < 0 || iy >= h || ix < 0 || ix >= w {
							tab[n] = s.zero[:icg]
						} else {
							p := ((b*h+iy)*w+ix)*c + grp*icg
							tab[n] = din[p : p+icg]
						}
						n++
					}
				}
			}
		}
		s.tiles[t] = tab[start:n:n]
	}
}

// denseRows fills s.tiles with the tiles of a dense layer's m rows of k
// values, row stride lda: tile t lists rows 4t…4t+3, each one segment, the
// row itself — the input row is the patch. A row past m repeats row m−1;
// its cells are computed and never stored, so a dense launch needs no zero
// row.
func denseRows[T panelElem](s *indirectScratch[T], a []T, m, k, lda int) {
	for t := range s.tiles {
		tab := s.tab[t*gemmMR : (t+1)*gemmMR : (t+1)*gemmMR]
		for i := range tab {
			r := min(t*gemmMR+i, m-1)
			tab[i] = a[r*lda : r*lda+k]
		}
		s.tiles[t] = tab
	}
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
// channels, k values a patch) against the tiles of ow rows — one output row
// of ow pixels, or a dense layer's ow rows — and stores the ow×n block into
// c, row stride ldc, with ep's bias (from channel ch0 on) and clamp applied
// to the accumulators at the store.
// It takes the widest tile that fits the panels left — gemmWidePanels
// adjacent panels, or one — and sweeps every tile against it, so its
// panels stay hot across the row.
//
//np:hotpath
func indirectPanelsF32(tiles [][][]float32, bpack, c []float32, ow, n, k, ldc int, ep *epilogueF32, ch0 int) {
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
		for it, rows := range tiles {
			gemmIndirectF32(w, rows, bp, bias, lo, hi, &acc)
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
func indirectPanelsI32(tiles [][][]i16x2, bpack []i16x2, c []int32, ow, n, kp, ldc int) {
	var acc [gemmMR * gemmNR]int32
	for jt := 0; jt < gemmTiles(n, gemmNR); jt++ {
		bp := bpack[jt*kp*gemmNR : (jt+1)*kp*gemmNR]
		nj := min(gemmNR, n-jt*gemmNR)
		for it, rows := range tiles {
			gemmIndirectI16(rows, bp, &acc)
			mi := min(gemmMR, ow-it*gemmMR)
			for i := 0; i < mi; i++ {
				copy(c[(it*gemmMR+i)*ldc+jt*gemmNR:][:nj], acc[i*gemmNR:])
			}
		}
	}
}
