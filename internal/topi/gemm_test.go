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
				acc += float32(a[i*lda+kk] * b[j*ldb+kk])
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
	bpack = make([]float32, gemmTiles(n, gemmNR)*gemmNR*k)
	packPanels(bpack, b, n, k, k, gemmNR)
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
			got := make([]float32, m*n)
			gemmF32(m, n, k, a, k, bpack, got, n)
			if i, ok := sameF32Bits(got, want); !ok {
				t.Fatalf("c[%d]: blocked %v != naive %v", i, got[i], want[i])
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
// both signs and several magnitudes, denormals, both zeros, both infinities,
// NaN of both signs. Products and sums of these reach overflow, gradual
// underflow, −0 and more NaN (Inf·0, Inf−Inf).
var tileValues = []float32{
	1, -1, 0.5, -3.25, 1.0000001, -0.33333334, 1e-20, -1e20, 3e38, -3e38,
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -7e-42, 1.1754942e-38,
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7fc00011), math.Float32frombits(0xffc00022),
}

// tileKernel is one f32 register-tile entry point: it spans panels adjacent
// B panels and writes row i of its tile at acc[i·panels·8:]. needs names the
// CPU feature it runs on; skip marks one this CPU lacks.
type tileKernel struct {
	name   string
	panels int
	run    func(ap, bp []float32, acc *[gemmMR * gemmWideNR]float32)
	needs  string
	skip   bool
}

// narrowTile adapts a 4×8 tile to the wide tiles' accumulator buffer.
func narrowTile(tile func(ap, bp []float32, acc *[gemmMR * gemmNR]float32)) func(ap, bp []float32, acc *[gemmMR * gemmWideNR]float32) {
	return func(ap, bp []float32, acc *[gemmMR * gemmWideNR]float32) {
		tile(ap, bp, (*[gemmMR * gemmNR]float32)(acc[:gemmMR*gemmNR]))
	}
}

// TestGemmMicroF32Tile pins each register tile of tileKernels (on amd64 every
// assembly tile separately, and the dispatched gemmMicroF32 and
// gemmMicroF32Wide) panel by panel against gemmMicroF32Go and the naive
// per-cell loop, on every bit, for every k through the ×4 unroll boundaries
// and a few long reductions. A NaN cell must be NaN in all of them; its
// payload is not compared (which operand's payload survives is the
// instruction's choice).
func TestGemmMicroF32Tile(t *testing.T) {
	for _, kern := range tileKernels {
		t.Run(kern.name, func(t *testing.T) {
			if kern.skip {
				t.Skipf("%s tile not run: the CPU lacks %s or the OS does not save its register state", kern.name, kern.needs)
			}
			testMicroF32Tile(t, kern)
		})
	}
}

func testMicroF32Tile(t *testing.T, kern tileKernel) {
	const tile = gemmMR * gemmNR
	ld := kern.panels * gemmNR
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
		if finiteOnly && (v != v || math.IsInf(float64(v), 0)) {
			return 0.75
		}
		return v
	}
	for _, k := range ks {
		for round := 0; round < 4; round++ {
			// Odd rounds keep infinities and NaN out so that most cells stay
			// non-NaN and the denormal and signed-zero sums are compared.
			ap := make([]float32, k*gemmMR)
			bp := make([]float32, kern.panels*k*gemmNR)
			for i := range ap {
				ap[i] = draw(round%2 == 1)
			}
			for i := range bp {
				bp[i] = draw(round%2 == 1)
			}
			// Guard cells on both sides of acc, and acc's cells past the
			// tile: the kernel writes the tile and nothing else. Start from
			// garbage: k == 0 must write zeros.
			var got struct {
				pre  [4]float32
				acc  [gemmMR * gemmWideNR]float32
				post [4]float32
			}
			for i := range got.acc {
				got.acc[i] = 42
			}
			got.pre, got.post = [4]float32{1, 2, 3, 4}, [4]float32{5, 6, 7, 8}
			kern.run(ap, bp, &got.acc)
			if got.pre != [4]float32{1, 2, 3, 4} || got.post != [4]float32{5, 6, 7, 8} {
				t.Fatalf("k=%d: %s wrote outside acc", k, kern.name)
			}
			for c := gemmMR * ld; c < len(got.acc); c++ {
				if got.acc[c] != 42 {
					t.Fatalf("k=%d: %s wrote acc[%d], past its %d×%d tile", k, kern.name, c, gemmMR, ld)
				}
			}
			for p := 0; p < kern.panels; p++ {
				pb := bp[p*k*gemmNR : (p+1)*k*gemmNR]
				var want, gok [tile]float32
				for i := 0; i < gemmMR; i++ {
					for j := 0; j < gemmNR; j++ {
						var acc float32
						for kk := 0; kk < k; kk++ {
							acc += float32(ap[kk*gemmMR+i] * pb[kk*gemmNR+j])
						}
						want[i*gemmNR+j] = acc
					}
				}
				for i := range gok {
					gok[i] = 42
				}
				gemmMicroF32Go(ap, pb, &gok)
				for c, w := range want {
					i, j := c/gemmNR, c%gemmNR
					for _, r := range []struct {
						name string
						got  float32
					}{{kern.name, got.acc[i*ld+p*gemmNR+j]}, {"gemmMicroF32Go", gok[c]}} {
						bothNaN := w != w && r.got != r.got
						if !bothNaN && math.Float32bits(r.got) != math.Float32bits(w) {
							t.Fatalf("k=%d panel %d cell %d: %s = %v (%#08x), naive %v (%#08x)",
								k, p, c, r.name, r.got, math.Float32bits(r.got), w, math.Float32bits(w))
						}
					}
				}
			}
		}
	}
	// k == 0 with nil panels: nothing to read, zeros written.
	var acc [gemmMR * gemmWideNR]float32
	acc[0], acc[gemmMR*ld-1] = 9, 9
	kern.run(nil, nil, &acc)
	if acc != [gemmMR * gemmWideNR]float32{} {
		t.Fatalf("k=0 on nil panels: %s acc = %v, want zeros", kern.name, acc)
	}
}

// TestGemmPanelsF32Spans drives the panel walk over every N-panel range
// [jtLo, jtHi) — odd starts included — for n = 1…40, so the widest tile,
// each narrower tile of the tail and a last panel cut short by n all run,
// against the naive loop: the range's columns equal it bitwise and every
// other cell of C is left alone.
func TestGemmPanelsF32Spans(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for n := 1; n <= 40; n++ {
		for _, mk := range [][2]int{{1, 3}, {5, 17}, {7, 64}} {
			m, k := mk[0], mk[1]
			a, bpack, want := gemmF32Case(rng, m, n, k, k, n)
			ap := make([]float32, gemmTiles(m, gemmMR)*gemmMR*k)
			packPanels(ap, a, m, k, k, gemmMR)
			nt := gemmTiles(n, gemmNR)
			for lo := 0; lo < nt; lo++ {
				for hi := lo + 1; hi <= nt; hi++ {
					got := make([]float32, m*n)
					for i := range got {
						got[i] = 42
					}
					gemmPanelsF32(ap, bpack, got, m, n, k, n, lo, hi)
					for c := range got {
						w := float32(42)
						if j := c % n; j >= lo*gemmNR && j < hi*gemmNR {
							w = want[c]
						}
						if math.Float32bits(got[c]) != math.Float32bits(w) {
							t.Fatalf("m%d n%d k%d panels [%d,%d): c[%d,%d] = %v, want %v",
								m, n, k, lo, hi, c/n, c%n, got[c], w)
						}
					}
				}
			}
		}
	}
}

// pairRows packs rows rows of k int32 values into rows of pairsOf(k)
// k-pairs, an odd row padded with a zero.
func pairRows(src []int32, rows, k int) []i16x2 {
	kp := pairsOf(k)
	dst := make([]i16x2, rows*kp)
	for r := 0; r < rows; r++ {
		for kk := 0; kk < k; kk += 2 {
			hi := int32(0)
			if kk+1 < k {
				hi = src[r*k+kk+1]
			}
			dst[r*kp+kk/2] = pairOf(src[r*k+kk], hi)
		}
	}
	return dst
}

// TestGemmI32MatchesNaive: the quantized GEMM — operands at ±255 as k-pairs,
// odd k padded — equals the naive int32 loop over the unpadded operands.
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
			kp := pairsOf(k)
			bpack := make([]i16x2, gemmTiles(n, gemmNR)*gemmNR*kp)
			packPanels(bpack, pairRows(b, n, k), n, kp, kp, gemmNR)
			got := make([]int32, m*n)
			gemmI32(m, n, kp, pairRows(a, m, k), kp, bpack, got, n)
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

// i16TileKernels are the quantized register tiles TestGemmMicroI16Tile runs
// against gemmMicroI16Go and the naive loop: the dispatched gemmMicroI16
// (on amd64 the PMADDWD assembly) and the Go tile itself.
var i16TileKernels = []struct {
	name string
	run  func(ap, bp []i16x2, acc *[gemmMR * gemmNR]int32)
}{{"gemmMicroI16", gemmMicroI16}, {"gemmMicroI16Go", gemmMicroI16Go}}

// TestGemmMicroI16Tile pins the quantized tile on every k through both pair
// parities and a long reduction: operands drawn at random from [−255, 255]
// with a quarter of them at ±255 (the largest pair sums, 2·255² each),
// panels of odd k padded with zeros, each cell equal to the naive int32 dot
// product of the unpadded rows. The tile writes its 32 sums and nothing
// else, and zeros on k == 0.
func TestGemmMicroI16Tile(t *testing.T) {
	const tile = gemmMR * gemmNR
	rng := rand.New(rand.NewSource(47))
	draw := func() int32 {
		if rng.Intn(4) == 0 {
			return int32(255 * (1 - 2*rng.Intn(2)))
		}
		return int32(rng.Intn(511) - 255)
	}
	for _, kern := range i16TileKernels {
		t.Run(kern.name, func(t *testing.T) {
			for _, k := range []int{0, 1, 2, 3, 4, 5, 17, 576} {
				for round := 0; round < 4; round++ {
					a := make([]int32, gemmMR*k)
					b := make([]int32, gemmNR*k)
					for i := range a {
						a[i] = draw()
					}
					for i := range b {
						b[i] = draw()
					}
					if round == 3 {
						// Every product at its largest: the sums' extremes.
						for i := range a {
							a[i] = 255
						}
						for i := range b {
							b[i] = -255
						}
					}
					kp := pairsOf(k)
					ap := make([]i16x2, gemmMR*kp)
					bp := make([]i16x2, gemmNR*kp)
					packPanels(ap, pairRows(a, gemmMR, k), gemmMR, kp, kp, gemmMR)
					packPanels(bp, pairRows(b, gemmNR, k), gemmNR, kp, kp, gemmNR)
					var want [tile]int32
					naiveGemmI32(gemmMR, gemmNR, k, a, k, b, k, want[:], gemmNR)
					var got struct {
						pre  [4]int32
						acc  [tile]int32
						post [4]int32
					}
					for i := range got.acc {
						got.acc[i] = 42
					}
					got.pre, got.post = [4]int32{1, 2, 3, 4}, [4]int32{5, 6, 7, 8}
					kern.run(ap, bp, &got.acc)
					if got.pre != [4]int32{1, 2, 3, 4} || got.post != [4]int32{5, 6, 7, 8} {
						t.Fatalf("k=%d: %s wrote outside acc", k, kern.name)
					}
					if got.acc != want {
						t.Fatalf("k=%d round %d: %s = %v, naive %v", k, round, kern.name, got.acc, want)
					}
				}
			}
			acc := [tile]int32{0: 9, tile - 1: 9}
			kern.run(nil, nil, &acc)
			if acc != [tile]int32{} {
				t.Fatalf("k=0 on nil panels: %s acc = %v, want zeros", kern.name, acc)
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
	af, bf, cf := make([]float32, m*k), make([]float32, gemmTiles(n, gemmNR)*gemmNR*k), make([]float32, m*n)
	ai, bi, ci := make([]i16x2, m*k), make([]i16x2, gemmTiles(n, gemmNR)*gemmNR*k), make([]int32, m*n)
	for name, call := range map[string]func(){
		"gemmF32": func() { gemmF32(m, n, k, af, k, bf, cf, n) },
		"gemmI32": func() { gemmI32(m, n, k, ai, k, bi, ci, n) },
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
		if got := !im2colPays(out, weight, cc.groups); got != cc.direct {
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

			direct := convF32(data, weight, cc.params(), out, nil, false, epilogueF32{})
			blocked := convF32(data, weight, cc.params(), out, nil, true, epilogueF32{})
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

			direct, err := convQnn(data, weight, cc.params(), zpIn, zpK, out, nil, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			blocked, err := convQnn(data, weight, cc.params(), zpIn, zpK, out, nil, true, nil)
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
