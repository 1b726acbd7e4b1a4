package topi

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// convDirectRowPerCell is the direct row as it ran before depthwiseRow: one
// accumulator per cell over ky, kx, ic ascending against the OHWI filter,
// whatever the geometry. depthwiseRow must equal it bit for bit.
func convDirectRowPerCell[T float32 | int32](row, din, wt []T, g *convGeom, job int) {
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
					x := din[(b*h+iy)*w*c+grp*icg:]
					k := wt[(o*kh+ky)*kw*icg:]
					for kx := 0; kx < kw; kx++ {
						ix := ox*g.sw - g.padL + kx*g.dw
						if ix < 0 || ix >= w {
							continue
						}
						xi, ki := ix*c, kx*icg
						for ic := 0; ic < icg; ic++ {
							acc += T(x[xi+ic] * k[ki+ic])
						}
					}
				}
				row[outBase+o] = acc
			}
		}
	}
}

// depthwiseCases are depthwise geometries beyond convCases' one: stride 2,
// dilation 2, asymmetric padding, a padding wider than the filter reach
// (rows and pixels with no tap at all), a batch of two.
var depthwiseCases = []convCase{
	{name: "3x3-s1", n: 1, h: 9, w: 8, c: 5, oc: 5, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 5, pad: samePad},
	{name: "3x3-s2", n: 2, h: 9, w: 10, c: 6, oc: 6, kh: 3, kw: 3, sh: 2, sw: 2, dh: 1, dw: 1, groups: 6, pad: samePad},
	{name: "3x3-d2", n: 1, h: 11, w: 9, c: 4, oc: 4, kh: 3, kw: 3, sh: 1, sw: 1, dh: 2, dw: 2, groups: 4, pad: [4]int{2, 2, 2, 2}},
	{name: "2x3-asym", n: 1, h: 7, w: 10, c: 3, oc: 3, kh: 2, kw: 3, sh: 2, sw: 1, dh: 1, dw: 1, groups: 3, pad: [4]int{0, 1, 2, 1}},
	{name: "3x3-wide-pad", n: 1, h: 4, w: 4, c: 7, oc: 7, kh: 3, kw: 3, sh: 1, sw: 3, dh: 1, dw: 2, groups: 7, pad: [4]int{4, 3, 4, 5}},
}

// TestDepthwiseRowMatchesPerCellLoop pins the channel-vector depthwise row
// against the per-cell loop on every output row: float data and filters
// mixing in NaN, ±Inf, −0 and denormals (compared on every bit, NaN
// payloads included — both loops run the same operations per cell), and
// int32 operands at ±255.
func TestDepthwiseRowMatchesPerCellLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, cc := range append(depthwiseCases, convCaseNamed(t, "depthwise")) {
		t.Run(cc.name, func(t *testing.T) {
			g := convCaseGeom(cc)
			if !g.depthwise() {
				t.Fatalf("%s is not depthwise", cc.name)
			}
			dataShape := tensor.Shape{cc.n, cc.h, cc.w, cc.c}
			weightShape := tensor.Shape{cc.oc, cc.kh, cc.kw, 1}
			dinF, wtF := drawF32(rng, dataShape).F32(), drawF32(rng, weightShape).F32()
			dinI, wtI := make([]int32, len(dinF)), make([]int32, len(wtF))
			for i := range dinI {
				dinI[i] = int32(rng.Intn(511) - 255)
			}
			for i := range wtI {
				wtI[i] = int32(rng.Intn(511) - 255)
			}
			testDepthwiseRow(t, &g, dinF, wtF, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) })
			testDepthwiseRow(t, &g, dinI, wtI, func(a, b int32) bool { return a == b })
		})
	}
}

func testDepthwiseRow[T float32 | int32](t *testing.T, g *convGeom, din, wt []T, same func(a, b T) bool) {
	t.Helper()
	taps := make([]T, len(wt))
	tapMajor(taps, wt, g.oc, g.kh*g.kw)
	want, got := make([]T, g.rowLen()), make([]T, g.rowLen())
	for job := 0; job < len(din)/(g.h*g.w*g.c)*g.oh; job++ {
		for i := range got {
			got[i] = 7
		}
		convDirectRowPerCell(want, din, wt, g, job)
		convDirectRow(got, din, taps, g, job)
		for i := range want {
			if !same(got[i], want[i]) {
				t.Fatalf("%T row %d cell %d: depthwise %v, per-cell %v", got[i], job, i, got[i], want[i])
			}
		}
	}
}

// TestMulAddRowMatchesScalar pins mulAddRow — on an AVX2 host its vector
// body plus the Go tail — against the plain per-element loop for every length
// 0…67 at unaligned offsets: int32 over the full range, so products and sums
// wrap, and float32 over tileValues' specials (NaN, ±Inf, ±0, denormals,
// overflow). Bitwise, except that a NaN's payload is not compared (which
// operand's survives is the instruction's choice, and the compiler's
// operand order for the reference loop changes under -race); nothing past
// len(out) is written.
func TestMulAddRowMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for n := 0; n <= 67; n++ {
		off := n % 4
		xi, ki, oi := make([]int32, n+off), make([]int32, n+off), make([]int32, n+off+1)
		xf, kf, of := make([]float32, n+off), make([]float32, n+off), make([]float32, n+off+1)
		for i := range xi {
			xi[i], ki[i], oi[i] = int32(rng.Uint32()), int32(rng.Uint32()), int32(rng.Uint32())
			xf[i] = tileValues[rng.Intn(len(tileValues))]
			kf[i] = tileValues[rng.Intn(len(tileValues))]
			of[i] = tileValues[rng.Intn(len(tileValues))]
		}
		oi[n+off], of[n+off] = 7, 7
		wi, wf := append([]int32(nil), oi...), append([]float32(nil), of...)
		for i := off; i < n+off; i++ {
			wi[i] += xi[i] * ki[i]
			wf[i] += float32(xf[i] * kf[i])
		}
		mulAddRow(oi[off:n+off], xi[off:], ki[off:])
		mulAddRow(of[off:n+off], xf[off:], kf[off:])
		for i := range wi {
			if oi[i] != wi[i] {
				t.Fatalf("int32 n=%d: out[%d] = %d, want %d", n, i, oi[i], wi[i])
			}
			if bothNaN := of[i] != of[i] && wf[i] != wf[i]; !bothNaN && math.Float32bits(of[i]) != math.Float32bits(wf[i]) {
				t.Fatalf("float32 n=%d: out[%d] = %v (%#08x), want %v (%#08x)",
					n, i, of[i], math.Float32bits(of[i]), wf[i], math.Float32bits(wf[i]))
			}
		}
	}
}
