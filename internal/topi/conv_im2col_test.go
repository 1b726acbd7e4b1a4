package topi

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// packColRows is the row-major patch pack the im2col path used before
// packCol wrote panels: col[ox·k + (ky·kw+kx)·icg + ic], taps in the padding
// zero. packPanels over its ow rows is what packCol must equal.
func packColRows[T float32 | int32](col, din []T, g *convGeom, job, grp int) {
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

// convCaseGeom is cc's geometry.
func convCaseGeom(cc convCase) convGeom {
	oh, ow := cc.outShape()
	return newConvGeom(cc.params(), tensor.Shape{cc.n, cc.h, cc.w, cc.c},
		tensor.Shape{cc.oc, cc.kh, cc.kw, cc.c / cc.groups}, tensor.Shape{cc.n, oh, ow, cc.oc})
}

// TestPackColIsPackedRows: for every convCases shape, row and group, and
// both element types, packCol's panels equal packColRows followed by
// packPanels at gemmMR — tail lanes zero — bit for bit, over a destination
// that starts as garbage. The float data mixes in NaN, ±Inf, −0 and
// denormals.
func TestPackColIsPackedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, cc := range convCases {
		t.Run(cc.name, func(t *testing.T) {
			g := convCaseGeom(cc)
			dinF := drawF32(rng, tensor.Shape{cc.n, cc.h, cc.w, cc.c}).F32()
			dinI := make([]int32, len(dinF))
			for i := range dinI {
				dinI[i] = int32(rng.Intn(511) - 255)
			}
			testPackCol(t, &g, dinF, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) })
			testPackCol(t, &g, dinI, func(a, b int32) bool { return a == b })
		})
	}
}

func testPackCol[T float32 | int32](t *testing.T, g *convGeom, din []T, same func(a, b T) bool) {
	t.Helper()
	rows := make([]T, g.ow*g.k())
	want := make([]T, colLen(g))
	got := make([]T, colLen(g))
	for job := 0; job < len(din)/(g.h*g.w*g.c)*g.oh; job++ {
		for grp := 0; grp < g.groups; grp++ {
			for i := range got {
				got[i] = 7
			}
			packColRows(rows, din, g, job, grp)
			packPanels(want, rows, g.ow, g.k(), g.k(), gemmMR)
			packCol(got, din, g, job, grp)
			for i := range want {
				if !same(got[i], want[i]) {
					t.Fatalf("%T row %d group %d: panel element %d = %v, want %v", got[i], job, grp, i, got[i], want[i])
				}
			}
		}
	}
}
