package topi

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// packColRows is the row-major patch pack the im2col path used before it
// wrote panels: col[ox·k + (ky·kw+kx)·icg + ic], taps in the padding zero.
// Its ow rows are the A rows the GEMM tiles read when the patches were
// copied (packCol, since deleted), and what the indirect tables must stand
// for.
func packColRows[T panelElem](col, din []T, g *convGeom, job, grp int) {
	h, w, c, kh, kw, icg := g.h, g.w, g.c, g.kh, g.kw, g.icg
	b, oy := job/g.oh, job%g.oh
	k := g.k()
	for ox := 0; ox < g.ow; ox++ {
		for ky := 0; ky < kh; ky++ {
			iy := oy*g.sh - g.padT + ky*g.dh
			rowBase := ox*k + ky*kw*icg
			if iy < 0 || iy >= h {
				clear(col[rowBase : rowBase+kw*icg])
				continue
			}
			for kx := 0; kx < kw; kx++ {
				ix := ox*g.sw - g.padL + kx*g.dw
				dst := col[rowBase+kx*icg : rowBase+(kx+1)*icg]
				if ix < 0 || ix >= w {
					clear(dst)
					continue
				}
				src := din[((b*h+iy)*w+ix)*c+grp*icg:]
				copy(dst, src[:icg])
			}
		}
	}
}

// gatherTile lays one tile's table out as the four rows it stands for,
// row-major: a[i·k+kk] = row i's kk-th value, the segments' runs end to
// end.
func gatherTile[T panelElem](tab tileTable[T]) []T {
	a := make([]T, 0, len(tab.offs)*tab.seg)
	for i := 0; i < gemmMR; i++ {
		for s := i; s < len(tab.offs); s += gemmMR {
			a = append(a, tableRun(tab.a, tab.base, tab.zero, tab.offs[s], tab.seg)...)
		}
	}
	return a
}

// convCaseGeom is cc's geometry.
func convCaseGeom(cc convCase) convGeom {
	oh, ow := cc.outShape()
	return newConvGeom(cc.params(), tensor.Shape{cc.n, cc.h, cc.w, cc.c},
		tensor.Shape{cc.oc, cc.kh, cc.kw, cc.c / cc.groups}, tensor.Shape{cc.n, oh, ow, cc.oc})
}

// TestPackColIsPackedRows: for every convCases and indirectTileCases
// shape, row and group, and both element types (float32, and the quantized
// k-pairs, which the table points into over a pairs() geometry), the
// prepared offset tables gathered tile by tile from each output row's
// origin equal packColRows' rows — a tail tile's rows past ow zero — bit
// for bit: the indirect tile reads the very rows the patch copy wrote, in
// the same k order. The float data mixes in NaN, ±Inf, −0 and denormals.
func TestPackColIsPackedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, cc := range append(convCases, indirectTileCases...) {
		t.Run(cc.name, func(t *testing.T) {
			g := convCaseGeom(cc)
			dinF := drawF32(rng, tensor.Shape{cc.n, cc.h, cc.w, cc.c}).F32()
			dinP := make([]i16x2, len(dinF))
			for i := range dinP {
				dinP[i] = pairOf(int32(rng.Intn(511)-255), int32(rng.Intn(511)-255))
			}
			testIndirectTables(t, &g, dinF, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) })
			testIndirectTables(t, &g, dinP, func(a, b i16x2) bool { return a == b })
		})
	}
}

func testIndirectTables[T panelElem](t *testing.T, g *convGeom, din []T, same func(a, b T) bool) {
	t.Helper()
	k := g.k()
	want := make([]T, gemmTiles(g.ow, gemmMR)*gemmMR*k)
	tab := mustTable(newConvTable[T](g))
	for job := 0; job < len(din)/(g.h*g.w*g.c)*g.oh; job++ {
		rows := tab.convRow(g, din, job)
		for grp := 0; grp < g.groups; grp++ {
			packColRows(want, din, g, job, grp)
			clear(want[g.ow*k:])
			for it := range tab.seg {
				offs, seg := rows.tile(it)
				got := gatherTile(tileTable[T]{din, rows.base, tab.zero, offs, seg})
				if len(got) != k*gemmMR {
					t.Fatalf("%T row %d group %d tile %d: the table covers %d elements, want %d", got[0], job, grp, it, len(got), k*gemmMR)
				}
				for i, v := range got {
					if w := want[it*k*gemmMR+i]; !same(v, w) {
						t.Fatalf("%T row %d group %d tile %d: row %d element %d = %v, want %v", v, job, grp, it, i/k, i%k, v, w)
					}
				}
			}
			rows.base += g.icg
		}
	}
}
