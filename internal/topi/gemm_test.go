package topi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/race"
	"repro/internal/relay"
	"repro/internal/tensor"
)

// naiveGemmF32 is the reference contraction the blocked kernel must match
// bit-for-bit: one accumulator per cell, k ascending. a is m×k row-major,
// b is n×k row-major (weight layout: each output column is a row of b).
func naiveGemmF32(m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float32
			for kk := 0; kk < k; kk++ {
				acc += a[i*lda+kk] * b[j*ldb+kk]
			}
			c[i*ldc+j] = acc
		}
	}
}

func naiveGemmI32(m, n, k int, a []int32, lda int, b []int32, ldb int, c []int32, ldc int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc int32
			for kk := 0; kk < k; kk++ {
				acc += a[i*lda+kk] * b[j*ldb+kk]
			}
			c[i*ldc+j] = acc
		}
	}
}

// gemmDims exercises every microkernel edge: dims below one tile, exact
// tile multiples, primes that leave ragged edge tiles in both M and N, K
// values around the ×4 unroll boundary, and — for the 8-wide f32 panel —
// every n in {1, 7, 8, 9, 15, 17} against every m in {1, 3, 5}.
var gemmDims = func() [][3]int {
	dims := [][3]int{
		{1, 1, 1}, {1, 2, 3}, {2, 1, 5}, {3, 2, 4}, {4, 2, 8},
		{4, 4, 16}, {5, 3, 7}, {7, 11, 13}, {8, 6, 64}, {13, 7, 11},
		{17, 5, 29}, {23, 19, 3}, {31, 17, 23}, {64, 32, 9},
	}
	for _, m := range []int{1, 3, 5} {
		for _, n := range []int{1, 7, 8, 9, 15, 17} {
			dims = append(dims, [3]int{m, n, 6 + m + n})
		}
	}
	return dims
}()

// gemmF32Case builds an m×k LHS (row stride lda), an n×k RHS and its packed
// panels from rng, plus the naive result with row stride ldc.
func gemmF32Case(rng *rand.Rand, m, n, k, lda, ldc int) (a, bpack, want []float32) {
	a = make([]float32, m*lda)
	b := make([]float32, n*k)
	for i := range a {
		a[i] = rng.Float32()*2 - 1
	}
	for i := range b {
		b[i] = rng.Float32()*2 - 1
	}
	bpack = make([]float32, gemmTiles(n, gemmNRF32)*gemmNRF32*k)
	packRHSF32(bpack, b, n, k, k)
	want = make([]float32, m*ldc)
	naiveGemmF32(m, n, k, a, lda, b, k, want, ldc)
	return a, bpack, want
}

// sameF32Bits reports the first index where got and want differ bitwise.
func sameF32Bits(got, want []float32) (int, bool) {
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i, false
		}
	}
	return 0, true
}

func TestGemmF32MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, d := range gemmDims {
		m, n, k := d[0], d[1], d[2]
		t.Run(fmt.Sprintf("m%d_n%d_k%d", m, n, k), func(t *testing.T) {
			a, bpack, want := gemmF32Case(rng, m, n, k, k, n)
			for _, cfg := range []*KernelConfig{nil, {GemmMC: 1}, {GemmMC: 4}, {GemmMC: 6}} {
				got := make([]float32, m*n)
				gemmF32Cfg(m, n, k, a, k, bpack, got, n, cfg)
				if i, ok := sameF32Bits(got, want); !ok {
					t.Fatalf("cfg %v: c[%d]: blocked %v != naive %v", cfg, i, got[i], want[i])
				}
			}
		})
	}
}

func TestGemmF32StridedOperands(t *testing.T) {
	// lda > k and ldc > n: the packed kernel must respect leading
	// dimensions when A rows and C rows are embedded in wider buffers, and
	// must leave the cells between C rows alone.
	rng := rand.New(rand.NewSource(11))
	for _, d := range gemmDims {
		m, n, k := d[0], d[1], d[2]
		lda, ldc := k+5, n+3
		a, bpack, want := gemmF32Case(rng, m, n, k, lda, ldc)
		got := make([]float32, m*ldc)
		gemmF32(m, n, k, a, lda, bpack, got, ldc)
		if i, ok := sameF32Bits(got, want); !ok {
			t.Fatalf("m%d n%d k%d: c[%d,%d]: blocked %v != naive %v", m, n, k, i/ldc, i%ldc, got[i], want[i])
		}
	}
}

// tileValues are the operand classes the tile test draws from: normals of
// both signs and several magnitudes, denormals, both zeros, both infinities.
// Products and sums of these reach overflow, gradual underflow, −0 and NaN
// (Inf·0, Inf−Inf).
var tileValues = []float32{
	1, -1, 0.5, -3.25, 1.0000001, -0.33333334, 1e-20, -1e20, 3e38, -3e38,
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -7e-42, 1.1754942e-38,
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)),
}

// TestGemmMicroF32Tile pins the register tile itself: gemmMicroF32 (the
// assembly on amd64), gemmMicroF32Go and the naive per-cell loop agree on
// every bit for every k through the ×4 unroll boundaries and a few long
// reductions. A NaN cell must be NaN in all three; its payload is not
// compared (which operand's payload survives is the instruction's choice).
func TestGemmMicroF32Tile(t *testing.T) {
	const tile = gemmMR * gemmNRF32
	rng := rand.New(rand.NewSource(23))
	ks := []int{128, 576, 1000, 4097}
	for k := 0; k <= 67; k++ {
		ks = append(ks, k)
	}
	draw := func(finiteOnly bool) float32 {
		if rng.Intn(3) == 0 {
			return rng.Float32()*2 - 1
		}
		v := tileValues[rng.Intn(len(tileValues))]
		if finiteOnly && math.IsInf(float64(v), 0) {
			return 0.75
		}
		return v
	}
	for _, k := range ks {
		for round := 0; round < 4; round++ {
			// Odd rounds keep infinities out so that most cells stay
			// non-NaN and the denormal and signed-zero sums are compared.
			ap := make([]float32, k*gemmMR)
			bp := make([]float32, k*gemmNRF32)
			for i := range ap {
				ap[i] = draw(round%2 == 1)
			}
			for i := range bp {
				bp[i] = draw(round%2 == 1)
			}
			var want [tile]float32
			for i := 0; i < gemmMR; i++ {
				for j := 0; j < gemmNRF32; j++ {
					var acc float32
					for kk := 0; kk < k; kk++ {
						acc += ap[kk*gemmMR+i] * bp[kk*gemmNRF32+j]
					}
					want[i*gemmNRF32+j] = acc
				}
			}
			// Guard cells on both sides of acc: the kernel writes the tile
			// and nothing else. Start from garbage: k == 0 must write zeros.
			var asm, gok struct {
				pre  [4]float32
				acc  [tile]float32
				post [4]float32
			}
			for i := range asm.acc {
				asm.acc[i], gok.acc[i] = 42, 42
			}
			asm.pre, asm.post = [4]float32{1, 2, 3, 4}, [4]float32{5, 6, 7, 8}
			gemmMicroF32(ap, bp, &asm.acc)
			gemmMicroF32Go(ap, bp, &gok.acc)
			if asm.pre != [4]float32{1, 2, 3, 4} || asm.post != [4]float32{5, 6, 7, 8} {
				t.Fatalf("k=%d: gemmMicroF32 wrote outside acc", k)
			}
			for c, w := range want {
				for _, kern := range []struct {
					name string
					got  float32
				}{{"gemmMicroF32", asm.acc[c]}, {"gemmMicroF32Go", gok.acc[c]}} {
					bothNaN := w != w && kern.got != kern.got
					if !bothNaN && math.Float32bits(kern.got) != math.Float32bits(w) {
						t.Fatalf("k=%d cell %d: %s = %v (%#08x), naive %v (%#08x)",
							k, c, kern.name, kern.got, math.Float32bits(kern.got), w, math.Float32bits(w))
					}
				}
			}
		}
	}
	// k == 0 with nil panels: nothing to read, zeros written.
	acc := [tile]float32{0: 9, tile - 1: 9}
	gemmMicroF32(nil, nil, &acc)
	if acc != [tile]float32{} {
		t.Fatalf("k=0 on nil panels: acc = %v, want zeros", acc)
	}
}

func TestGemmI32MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, d := range gemmDims {
		m, n, k := d[0], d[1], d[2]
		t.Run(fmt.Sprintf("m%d_n%d_k%d", m, n, k), func(t *testing.T) {
			a := make([]int32, m*k)
			b := make([]int32, n*k)
			for i := range a {
				a[i] = int32(rng.Intn(511) - 255)
			}
			for i := range b {
				b[i] = int32(rng.Intn(511) - 255)
			}
			bpack := make([]int32, gemmTiles(n, gemmNR)*gemmNR*k)
			packRHSI32(bpack, b, n, k, k)
			got := make([]int32, m*n)
			gemmI32(m, n, k, a, k, bpack, got, n)
			want := make([]int32, m*n)
			naiveGemmI32(m, n, k, a, k, b, k, want, n)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("c[%d]: blocked %d != naive %d", i, got[i], want[i])
				}
			}
		})
	}
}

// convCase is one conv2d shape; the property under test is that the
// im2col+GEMM path and the direct kernel produce bitwise-identical outputs
// (both reduce each output cell with a single accumulator over the same
// ky,kx,ic order; padding contributes exact zero terms).
// TestGemmSerialPathDoesNotAllocate: when the budget answers "serial" — one
// worker here; every GEMM nested under a parallel conv row loop in a model —
// the drivers call the panel loop directly, with no closure per call (the
// quantized convs call them once per output row per group).
func TestGemmSerialPathDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector makes sync.Pool drop scratch buffers at random")
	}
	old := parallel.SetMaxWorkers(1)
	defer parallel.SetMaxWorkers(old)
	const m, n, k = 13, 9, 27
	af, bf, cf := make([]float32, m*k), make([]float32, gemmTiles(n, gemmNRF32)*gemmNRF32*k), make([]float32, m*n)
	ai, bi, ci := make([]int32, m*k), make([]int32, gemmTiles(n, gemmNR)*gemmNR*k), make([]int32, m*n)
	blocked := &KernelConfig{GemmMC: 4}
	for name, call := range map[string]func(){
		"gemmF32Cfg":            func() { gemmF32Cfg(m, n, k, af, k, bf, cf, n, nil) },
		"gemmF32Cfg, MC blocks": func() { gemmF32Cfg(m, n, k, af, k, bf, cf, n, blocked) },
		"gemmI32Cfg":            func() { gemmI32Cfg(m, n, k, ai, k, bi, ci, n, nil) },
		"gemmI32Cfg, MC blocks": func() { gemmI32Cfg(m, n, k, ai, k, bi, ci, n, blocked) },
	} {
		if allocs := testing.AllocsPerRun(200, call); allocs != 0 {
			t.Errorf("%s allocates %v times per call on the serial path, want 0", name, allocs)
		}
	}
}

type convCase struct {
	name                   string
	n, h, w, c, oc, kh, kw int
	sh, sw, dh, dw, groups int
	pad                    [4]int
	direct                 bool // the built-in rule (im2colPays) keeps it on the direct kernel
}

var samePad = [4]int{1, 1, 1, 1} // 3×3 "same" padding

var convCases = []convCase{
	{name: "tiny", n: 1, h: 3, w: 3, c: 5, oc: 2, kh: 2, kw: 2, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1, direct: true},
	{name: "unit", n: 1, h: 8, w: 8, c: 3, oc: 4, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1},
	{name: "strided", n: 2, h: 9, w: 7, c: 3, oc: 5, kh: 3, kw: 3, sh: 2, sw: 2, dh: 1, dw: 1, groups: 1, pad: samePad},
	{name: "dilated", n: 1, h: 11, w: 11, c: 2, oc: 3, kh: 3, kw: 3, sh: 1, sw: 1, dh: 2, dw: 2, groups: 1},
	{name: "grouped", n: 1, h: 8, w: 8, c: 4, oc: 6, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 2, pad: samePad},
	{name: "asym-pad", n: 1, h: 7, w: 10, c: 3, oc: 4, kh: 2, kw: 3, sh: 2, sw: 1, dh: 1, dw: 1, groups: 1, pad: [4]int{0, 1, 2, 1}},
	{name: "pointwise", n: 1, h: 5, w: 5, c: 7, oc: 9, kh: 1, kw: 1, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1},
	// The f32 layers of the showcase trio (face detector, anti-spoofing,
	// emotion) under 1 << 20 MACs: seven for the GEMM path and one
	// single-filter 1×1 head.
	{name: "48x48x1-oc32", n: 1, h: 48, w: 48, c: 1, oc: 32, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1},
	{name: "64x64x3-oc8-s2", n: 1, h: 64, w: 64, c: 3, oc: 8, kh: 3, kw: 3, sh: 2, sw: 2, dh: 1, dw: 1, groups: 1, pad: samePad},
	{name: "16x16x16-oc8", n: 1, h: 16, w: 16, c: 16, oc: 8, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1, pad: samePad},
	{name: "16x16x8-oc8", n: 1, h: 16, w: 16, c: 8, oc: 8, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1, pad: samePad},
	{name: "16x16x24-oc12-k1", n: 1, h: 16, w: 16, c: 24, oc: 12, kh: 1, kw: 1, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1},
	{name: "8x8x20-oc8", n: 1, h: 8, w: 8, c: 20, oc: 8, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1, pad: samePad},
	{name: "8x8x12-oc8", n: 1, h: 8, w: 8, c: 12, oc: 8, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1, pad: samePad},
	{name: "8x8x28-oc1-k1", n: 1, h: 8, w: 8, c: 28, oc: 1, kh: 1, kw: 1, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1, direct: true},
	// One output channel per group: direct at any volume.
	{name: "grouped-ocg1", n: 1, h: 16, w: 16, c: 16, oc: 8, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 8, pad: samePad, direct: true},
	{name: "depthwise", n: 1, h: 24, w: 24, c: 16, oc: 16, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 16, pad: samePad, direct: true},
}

// TestConvStrategyRule pins which kernel the built-in rule picks for each
// case, so that the two equivalence tests below are known to cover shapes
// on both sides of it.
func TestConvStrategyRule(t *testing.T) {
	for _, cc := range convCases {
		oh, ow := cc.outShape()
		out := tensor.Shape{cc.n, oh, ow, cc.oc}
		weight := tensor.Shape{cc.oc, cc.kh, cc.kw, cc.c / cc.groups}
		if got := !convUseIm2col(nil, out, weight, cc.groups); got != cc.direct {
			t.Errorf("%s (output %v, filter %v, %d groups): direct = %v, want %v",
				cc.name, out, weight, cc.groups, got, cc.direct)
		}
	}
}

func (cc convCase) outShape() (oh, ow int) {
	oh = (cc.h+cc.pad[0]+cc.pad[2]-((cc.kh-1)*cc.dh+1))/cc.sh + 1
	ow = (cc.w+cc.pad[1]+cc.pad[3]-((cc.kw-1)*cc.dw+1))/cc.sw + 1
	return oh, ow
}

func (cc convCase) params() conv2dParams {
	return conv2dParams{sh: cc.sh, sw: cc.sw, dh: cc.dh, dw: cc.dw, groups: cc.groups, pad: cc.pad}
}

func (cc convCase) attrs() relay.Attrs {
	return relay.Attrs{
		"strides": []int{cc.sh, cc.sw}, "dilation": []int{cc.dh, cc.dw},
		"padding": []int{cc.pad[0], cc.pad[1], cc.pad[2], cc.pad[3]}, "groups": cc.groups,
	}
}

func TestConvIm2colMatchesDirectF32(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, cc := range convCases {
		t.Run(cc.name, func(t *testing.T) {
			data := tensor.New(tensor.Float32, tensor.Shape{cc.n, cc.h, cc.w, cc.c})
			weight := tensor.New(tensor.Float32, tensor.Shape{cc.oc, cc.kh, cc.kw, cc.c / cc.groups})
			dv, wv := data.F32(), weight.F32()
			for i := range dv {
				dv[i] = rng.Float32()*2 - 1
			}
			for i := range wv {
				wv[i] = rng.Float32()*2 - 1
			}
			oh, ow := cc.outShape()
			out := &relay.TensorType{Shape: tensor.Shape{cc.n, oh, ow, cc.oc}, DType: tensor.Float32}

			direct := conv2DF32Direct(data, weight, cc.params(), out, nil, nil)
			blocked := conv2DF32Im2col(data, weight, cc.params(), out, nil, nil)
			if i, ok := sameF32Bits(blocked.F32(), direct.F32()); !ok {
				t.Fatalf("out[%d]: direct %v != im2col %v", i, direct.F32()[i], blocked.F32()[i])
			}
			// The registered kernel, whichever path it dispatches to.
			got, err := conv2DF32([]*tensor.Tensor{data, weight}, cc.attrs(), out, nil)
			if err != nil {
				t.Fatal(err)
			}
			if i, ok := sameF32Bits(got.F32(), direct.F32()); !ok {
				t.Fatalf("out[%d]: direct %v != nn.conv2d %v", i, direct.F32()[i], got.F32()[i])
			}
		})
	}
}

func TestConvIm2colMatchesDirectQnn(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, cc := range convCases {
		t.Run(cc.name, func(t *testing.T) {
			data := tensor.New(tensor.UInt8, tensor.Shape{cc.n, cc.h, cc.w, cc.c})
			weight := tensor.New(tensor.UInt8, tensor.Shape{cc.oc, cc.kh, cc.kw, cc.c / cc.groups})
			for i := range data.U8() {
				data.U8()[i] = uint8(rng.Intn(256))
			}
			for i := range weight.U8() {
				weight.U8()[i] = uint8(rng.Intn(256))
			}
			const zpIn, zpK = 128, 119
			attrs := cc.attrs()
			attrs["input_zero_point"] = zpIn
			attrs["kernel_zero_point"] = zpK
			oh, ow := cc.outShape()
			out := &relay.TensorType{Shape: tensor.Shape{cc.n, oh, ow, cc.oc}, DType: tensor.Int32}

			direct, err := conv2DQnnDirect(data, weight, cc.params(), zpIn, zpK, out, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			blocked, err := conv2DQnnIm2col(data, weight, cc.params(), zpIn, zpK, out, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := qnnConv2D([]*tensor.Tensor{data, weight}, attrs, out, nil)
			if err != nil {
				t.Fatal(err)
			}
			d, b, g := direct.I32(), blocked.I32(), got.I32()
			for i := range d {
				if d[i] != b[i] || d[i] != g[i] {
					t.Fatalf("out[%d]: direct %d, im2col %d, qnn.conv2d %d", i, d[i], b[i], g[i])
				}
			}
		})
	}
}
