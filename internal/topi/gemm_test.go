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

// mustTable returns a table its builder cannot refuse in these tests.
func mustTable[T panelElem](tab *indirectTable[T], err error) *indirectTable[T] {
	if err != nil {
		panic(err)
	}
	return tab
}

// runDenseF32 is the float dense launch over a freshly prepared table of A's
// m rows, row stride lda.
func runDenseF32(m, n, k int, a []float32, lda int, bpack, c []float32, ldc int, ep epilogueF32) {
	denseGemmF32(mustTable(newDenseTable[float32](m, k, lda)), a, bpack, c, m, n, k, ldc, ep)
}

// runDenseI32 is runDenseF32 for the quantized operands, kp k-pairs a row.
func runDenseI32(m, n, kp int, a []i16x2, lda int, bpack []i16x2, c []int32, ldc int) {
	denseGemmI32(mustTable(newDenseTable[i16x2](m, kp, lda)), a, bpack, c, m, n, kp, ldc)
}

func TestGemmF32MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, d := range gemmDims {
		m, n, k := d[0], d[1], d[2]
		t.Run(fmt.Sprintf("m%d_n%d_k%d", m, n, k), func(t *testing.T) {
			a, bpack, want := gemmF32Case(rng, m, n, k, k, n)
			got := make([]float32, m*n)
			runDenseF32(m, n, k, a, k, bpack, got, n, epilogueF32{})
			if i, ok := sameF32Bits(got, want); !ok {
				t.Fatalf("c[%d]: dense %v != naive %v", i, got[i], want[i])
			}
		})
	}
}

func TestGemmF32StridedOperands(t *testing.T) {
	// lda > k and ldc > n: the dense launch must respect leading
	// dimensions when A rows and C rows are embedded in wider buffers, and
	// must leave the cells between C rows alone.
	rng := rand.New(rand.NewSource(11))
	for _, d := range gemmDims {
		m, n, k := d[0], d[1], d[2]
		lda, ldc := k+5, n+3
		a, bpack, want := gemmF32Case(rng, m, n, k, lda, ldc)
		got := make([]float32, m*ldc)
		runDenseF32(m, n, k, a, lda, bpack, got, ldc, epilogueF32{})
		if i, ok := sameF32Bits(got, want); !ok {
			t.Fatalf("m%d n%d k%d: c[%d,%d]: dense %v != naive %v", m, n, k, i/ldc, i%ldc, got[i], want[i])
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

// TestDenseSplitMatchesSerial drives the dense launch's panel loop over
// every chunk [gLo, gHi) of panel groups — every boundary a split can put,
// odd starts included — for n = 1…40 under a bias and a clamp to [0, 0.5].
// The launch on one worker equals the naive loop followed by the staged bias
// add and clampF32, and each chunk's columns equal that launch bit for bit,
// the bias taken from the chunk's own channels, while every other cell of C
// is left alone.
func TestDenseSplitMatchesSerial(t *testing.T) {
	old := parallel.SetMaxWorkers(1)
	defer parallel.SetMaxWorkers(old)
	rng := rand.New(rand.NewSource(29))
	for n := 1; n <= 40; n++ {
		for _, mk := range [][2]int{{1, 3}, {5, 17}, {7, 64}} {
			m, k := mk[0], mk[1]
			a, bpack, naive := gemmF32Case(rng, m, n, k, k, n)
			ep := epilogueF32{bias: drawF32(rng, tensor.Shape{n}).F32(), act: true, clamp: newClampF32(0, 0.5)}
			ep.apply(naive)
			serial := make([]float32, m*n)
			runDenseF32(m, n, k, a, k, bpack, serial, n, ep)
			if i, ok := sameF32Bits(serial, naive); !ok {
				t.Fatalf("m%d n%d k%d: c[%d,%d]: dense %v != naive then staged epilogue %v", m, n, k, i/n, i%n, serial[i], naive[i])
			}
			tab := mustTable(newDenseTable[float32](m, k, k))
			span := gemmWidePanels * gemmNR
			groups := gemmTiles(n, span)
			for lo := 0; lo < groups; lo++ {
				for hi := lo + 1; hi <= groups; hi++ {
					got := make([]float32, m*n)
					for i := range got {
						got[i] = 42
					}
					densePanelsF32{tab, a, bpack, got, m, n, k, n, ep}.run(lo, hi)
					for c := range got {
						w := float32(42)
						if j := c % n; j >= lo*span && j < hi*span {
							w = serial[c]
						}
						if math.Float32bits(got[c]) != math.Float32bits(w) {
							t.Fatalf("m%d n%d k%d groups [%d,%d): c[%d,%d] = %v, want %v",
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

// TestGemmI32MatchesNaive: the quantized dense launch — operands at ±255 as
// k-pairs, odd k padded — equals the naive int32 loop over the unpadded
// operands.
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
			runDenseI32(m, n, kp, pairRows(a, m, k), kp, bpack, got, n)
			want := make([]int32, m*n)
			naiveGemmI32(m, n, k, a, k, b, k, want, n)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("c[%d]: dense %d != naive %d", i, got[i], want[i])
				}
			}
		})
	}
}

// TestGemmSerialPathDoesNotAllocate: when the budget answers "serial" — one
// worker here, or a dense layer under an already split wavefront level —
// the dense launches call the panel loop directly, with no closure per call,
// over their prepared tables.
func TestGemmSerialPathDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector makes sync.Pool drop scratch buffers at random")
	}
	old := parallel.SetMaxWorkers(1)
	defer parallel.SetMaxWorkers(old)
	const m, n, k = 13, 9, 27
	af, bf, cf := make([]float32, m*k), make([]float32, gemmTiles(n, gemmNR)*gemmNR*k), make([]float32, m*n)
	ai, bi, ci := make([]i16x2, m*k), make([]i16x2, gemmTiles(n, gemmNR)*gemmNR*k), make([]int32, m*n)
	tf, ti := mustTable(newDenseTable[float32](m, k, k)), mustTable(newDenseTable[i16x2](m, k, k))
	for name, call := range map[string]func(){
		"denseGemmF32": func() { denseGemmF32(tf, af, bf, cf, m, n, k, n, epilogueF32{}) },
		"denseGemmI32": func() { denseGemmI32(ti, ai, bi, ci, m, n, k, n) },
	} {
		if allocs := testing.AllocsPerRun(200, call); allocs != 0 {
			t.Errorf("%s allocates %v times per call on the serial path, want 0", name, allocs)
		}
	}
}

// convCase is one conv2d shape; the property under test is that the
// indirect GEMM and the direct kernel produce bitwise-identical outputs
// (both reduce each output cell with a single accumulator over the same
// ky,kx,ic order; padding contributes exact zero terms).
type convCase struct {
	name                   string
	n, h, w, c, oc, kh, kw int
	sh, sw, dh, dw, groups int
	pad                    [4]int
	direct                 bool // the built-in rule (im2colPays) keeps it on the direct kernel: depthwise
}

var samePad = [4]int{1, 1, 1, 1} // 3×3 "same" padding

var convCases = []convCase{
	{name: "tiny", n: 1, h: 3, w: 3, c: 5, oc: 2, kh: 2, kw: 2, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1},
	{name: "unit", n: 1, h: 8, w: 8, c: 3, oc: 4, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1},
	{name: "strided", n: 2, h: 9, w: 7, c: 3, oc: 5, kh: 3, kw: 3, sh: 2, sw: 2, dh: 1, dw: 1, groups: 1, pad: samePad},
	{name: "dilated", n: 1, h: 11, w: 11, c: 2, oc: 3, kh: 3, kw: 3, sh: 1, sw: 1, dh: 2, dw: 2, groups: 1},
	{name: "grouped", n: 1, h: 8, w: 8, c: 4, oc: 6, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 2, pad: samePad},
	{name: "asym-pad", n: 1, h: 7, w: 10, c: 3, oc: 4, kh: 2, kw: 3, sh: 2, sw: 1, dh: 1, dw: 1, groups: 1, pad: [4]int{0, 1, 2, 1}},
	{name: "pointwise", n: 1, h: 5, w: 5, c: 7, oc: 9, kh: 1, kw: 1, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1},
	// The f32 layers of the showcase trio (face detector, anti-spoofing,
	// emotion) under 1 << 20 MACs: seven 3×3 and 1×1 layers and one
	// single-filter 1×1 head.
	{name: "48x48x1-oc32", n: 1, h: 48, w: 48, c: 1, oc: 32, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1},
	{name: "64x64x3-oc8-s2", n: 1, h: 64, w: 64, c: 3, oc: 8, kh: 3, kw: 3, sh: 2, sw: 2, dh: 1, dw: 1, groups: 1, pad: samePad},
	{name: "16x16x16-oc8", n: 1, h: 16, w: 16, c: 16, oc: 8, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1, pad: samePad},
	{name: "16x16x8-oc8", n: 1, h: 16, w: 16, c: 8, oc: 8, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1, pad: samePad},
	{name: "16x16x24-oc12-k1", n: 1, h: 16, w: 16, c: 24, oc: 12, kh: 1, kw: 1, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1},
	{name: "8x8x20-oc8", n: 1, h: 8, w: 8, c: 20, oc: 8, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1, pad: samePad},
	{name: "8x8x12-oc8", n: 1, h: 8, w: 8, c: 12, oc: 8, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1, pad: samePad},
	{name: "8x8x28-oc1-k1", n: 1, h: 8, w: 8, c: 28, oc: 1, kh: 1, kw: 1, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1},
	// One output channel per group, two input channels: indirect; only a
	// depthwise layer stays direct.
	{name: "grouped-ocg1", n: 1, h: 16, w: 16, c: 16, oc: 8, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 8, pad: samePad},
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
		if got := !im2colPays(weight, cc.groups); got != cc.direct {
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

			direct := directConvF32(data, weight, cc.params(), out, epilogueF32{})
			blocked := convF32(data, weight, cc.params(), out, nil, true, epilogueF32{})
			if i, ok := sameF32Bits(blocked.F32(), direct.F32()); !ok {
				t.Fatalf("out[%d]: direct %v != im2col %v", i, direct.F32()[i], blocked.F32()[i])
			}
			// The registered kernel, whichever path it dispatches to.
			got, err := Run("nn.conv2d", []*tensor.Tensor{data, weight}, cc.attrs(), out)
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

			direct, err := directConvQnn(data, weight, cc.params(), zpIn, zpK, out, nil)
			if err != nil {
				t.Fatal(err)
			}
			blocked, err := convQnn(data, weight, cc.params(), zpIn, zpK, out, nil, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run("qnn.conv2d", []*tensor.Tensor{data, weight}, attrs, out)
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

// indirectTileKernel is one f32 tile entry point: it spans panels adjacent
// B panels and writes row i of its tile at acc[i·panels·8:]. needs names the
// CPU feature it runs on; skip marks one this CPU lacks.
type indirectTileKernel struct {
	name   string
	panels int
	run    func(a []float32, base int, zero []float32, offs []int32, seg int, bp []float32, bias *[gemmWideNR]float32, lo, hi float32, acc *[gemmMR * gemmWideNR]float32)
	needs  string
	skip   bool
}

// narrowIndirect adapts a 4×8 tile to the wide accumulator buffer.
func narrowIndirect(tile func(a []float32, base int, zero []float32, offs []int32, seg int, bp []float32, bias *[gemmWideNR]float32, lo, hi float32, acc *[gemmMR * gemmNR]float32)) func(a []float32, base int, zero []float32, offs []int32, seg int, bp []float32, bias *[gemmWideNR]float32, lo, hi float32, acc *[gemmMR * gemmWideNR]float32) {
	return func(a []float32, base int, zero []float32, offs []int32, seg int, bp []float32, bias *[gemmWideNR]float32, lo, hi float32, acc *[gemmMR * gemmWideNR]float32) {
		tile(a, base, zero, offs, seg, bp, bias, lo, hi, (*[gemmMR * gemmNR]float32)(acc[:gemmMR*gemmNR]))
	}
}

// tileTable is one row tile's A side as the tiles take it: the data, the
// row's origin in it, the zero row, the tile's entries and its segment
// length.
type tileTable[T panelElem] struct {
	a    []T
	base int
	zero []T
	offs []int32
	seg  int
}

// indirectTileCases are the geometries the tile tests build convolution
// tables from: left and right padded edges with a tail tile of two pixels,
// stride 2 with a tail, a 1×1 with a one-pixel tail, a grouped and a
// dilated geometry (tap segments only), and interior runs long enough to
// cross the tiles' register blocking.
var indirectTileCases = []convCase{
	{name: "edges-tail", n: 1, h: 6, w: 10, c: 5, oc: 8, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1, pad: samePad},
	{name: "stride2", n: 2, h: 9, w: 11, c: 3, oc: 8, kh: 3, kw: 3, sh: 2, sw: 2, dh: 1, dw: 1, groups: 1, pad: samePad},
	{name: "pointwise-tail", n: 1, h: 3, w: 5, c: 7, oc: 8, kh: 1, kw: 1, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1},
	{name: "grouped", n: 1, h: 5, w: 6, c: 4, oc: 8, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 2, pad: samePad},
	{name: "dilated", n: 1, h: 7, w: 7, c: 2, oc: 8, kh: 3, kw: 3, sh: 1, sw: 1, dh: 2, dw: 2, groups: 1, pad: [4]int{2, 2, 2, 2}},
	{name: "long-runs", n: 1, h: 4, w: 12, c: 40, oc: 8, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1},
}

// denseTileKs are the row lengths of the dense tables the tile tests run:
// every k through 67, across the tiles' register blocking, and a few long
// reductions.
var denseTileKs = func() []int {
	ks := []int{128, 576, 1000, 4097}
	for k := 0; k <= 67; k++ {
		ks = append(ks, k)
	}
	return ks
}()

// indirectTables prepares g's table and calls each with every tile of every
// output row and group of din.
func indirectTables[T panelElem](g *convGeom, din []T, each func(tab tileTable[T])) {
	tab := mustTable(newConvTable[T](g))
	for job := 0; job < len(din)/(g.h*g.w*g.c)*g.oh; job++ {
		rows := tab.convRow(g, din, job)
		for grp := 0; grp < g.groups; grp++ {
			for it := range tab.seg {
				offs, seg := rows.tile(it)
				each(tileTable[T]{din, rows.base, tab.zero, offs, seg})
			}
			rows.base += g.icg
		}
	}
}

// denseTables prepares the table of three rows of k values of din (row
// stride k+1, so the runs are not adjacent) and calls each with its one
// tile, whose last row repeats the third.
func denseTables[T panelElem](k int, din func() T, each func(tab tileTable[T])) {
	const m = 3
	a := make([]T, m*(k+1))
	for i := range a {
		a[i] = din()
	}
	tab := mustTable(newDenseTable[T](m, k, k+1))
	each(tileTable[T]{a: a, offs: tab.offs, seg: k})
}

// storeEpilogues are the stores an f32 tile is tested under: none, a bias
// alone, relu with and without a bias, relu6 with one.
var storeEpilogues = []struct {
	name   string
	bias   bool
	lo, hi float32
}{
	{"none", false, float32(math.Inf(-1)), float32(math.Inf(1))},
	{"bias", true, float32(math.Inf(-1)), float32(math.Inf(1))},
	{"relu", false, 0, float32(math.Inf(1))},
	{"bias-relu", true, 0, float32(math.Inf(1))},
	{"bias-relu6", true, 0, 6},
}

// TestGemmIndirectF32Tile pins each f32 tile of indirectTileKernels (on
// amd64 every assembly body separately, the dispatched gemmIndirectF32 and
// the Go tile) on the tables of indirectTileCases' every tile and on dense
// tables of every k in denseTileKs: panel by panel, each cell equals the Go
// tile and the naive single-accumulator loop (naiveGemmF32) over the tile's
// gathered rows followed by the staged epilogue — the bias added, then
// clampF32 — on every bit. The first round mixes in tileValues' specials,
// the last its finite ones only, so that most cells stay non-NaN and the
// denormal and signed-zero sums are compared; a NaN cell must be NaN in
// both, its payload not compared (which operand's payload survives is the
// instruction's choice). The tile writes its cells and nothing else, and an
// empty table gives zeros.
func TestGemmIndirectF32Tile(t *testing.T) {
	for _, kern := range indirectTileKernels {
		t.Run(kern.name, func(t *testing.T) {
			if kern.skip {
				t.Skipf("%s tile not run: the CPU lacks %s or the OS does not save its register state", kern.name, kern.needs)
			}
			rng := rand.New(rand.NewSource(61))
			for round := 0; round < 3; round++ {
				draw := func() float32 {
					if round == 1 || rng.Intn(3) == 0 {
						return rng.Float32()*2 - 1
					}
					v := tileValues[rng.Intn(len(tileValues))]
					if round == 2 && (v != v || math.IsInf(float64(v), 0)) {
						return 0.75
					}
					return v
				}
				for _, cc := range indirectTileCases {
					g := convCaseGeom(cc)
					din := make([]float32, cc.n*cc.h*cc.w*cc.c)
					for i := range din {
						din[i] = draw()
					}
					indirectTables(&g, din, func(tab tileTable[float32]) {
						testIndirectF32Tile(t, kern, cc.name, tab, draw)
					})
				}
				for _, k := range denseTileKs {
					denseTables(k, draw, func(tab tileTable[float32]) {
						testIndirectF32Tile(t, kern, "dense", tab, draw)
					})
				}
			}
			var acc [gemmMR * gemmWideNR]float32
			acc[0] = 9
			kern.run(nil, 0, nil, nil, 0, nil, nil, float32(math.Inf(-1)), float32(math.Inf(1)), &acc)
			if acc != [gemmMR * gemmWideNR]float32{} {
				t.Fatalf("empty table: %s acc = %v, want zeros", kern.name, acc)
			}
		})
	}
}

func testIndirectF32Tile(t *testing.T, kern indirectTileKernel, name string, tab tileTable[float32], draw func() float32) {
	t.Helper()
	a := gatherTile(tab)
	k := len(a) / gemmMR
	ld := kern.panels * gemmNR
	b := make([]float32, ld*k)
	for i := range b {
		b[i] = draw()
	}
	bp := make([]float32, ld*k)
	packPanels(bp, b, ld, k, k, gemmNR)
	naive := make([]float32, gemmMR*ld)
	naiveGemmF32(gemmMR, ld, k, a, k, b, k, naive, ld)
	var bias [gemmWideNR]float32
	for i := range bias {
		bias[i] = draw()
	}
	for _, ep := range storeEpilogues {
		var bb *[gemmWideNR]float32
		if ep.bias {
			bb = &bias
		}
		var got struct {
			pre  [4]float32
			acc  [gemmMR * gemmWideNR]float32
			post [4]float32
		}
		for i := range got.acc {
			got.acc[i] = 42
		}
		got.pre, got.post = [4]float32{1, 2, 3, 4}, [4]float32{5, 6, 7, 8}
		kern.run(tab.a, tab.base, tab.zero, tab.offs, tab.seg, bp, bb, ep.lo, ep.hi, &got.acc)
		if got.pre != [4]float32{1, 2, 3, 4} || got.post != [4]float32{5, 6, 7, 8} {
			t.Fatalf("%s k=%d %s: %s wrote outside acc", name, k, ep.name, kern.name)
		}
		for c := gemmMR * ld; c < len(got.acc); c++ {
			if got.acc[c] != 42 {
				t.Fatalf("%s k=%d %s: %s wrote acc[%d], past its %d×%d tile", name, k, ep.name, kern.name, c, gemmMR, ld)
			}
		}
		clamp := newClampF32(ep.lo, ep.hi)
		for p := 0; p < kern.panels; p++ {
			var goTile [gemmMR * gemmNR]float32
			var goBias *[gemmWideNR]float32
			if ep.bias {
				goBias = new([gemmWideNR]float32)
				copy(goBias[:], bias[p*gemmNR:])
			}
			gemmIndirectF32Go(tab.a, tab.base, tab.zero, tab.offs, tab.seg, bp[p*k*gemmNR:(p+1)*k*gemmNR], goBias, ep.lo, ep.hi, &goTile)
			for c := range goTile {
				i, j := c/gemmNR, p*gemmNR+c%gemmNR
				w := naive[i*ld+j]
				if ep.bias {
					w = w + bias[j]
				}
				one := []float32{w}
				clamp.rows(one, one)
				w = one[0]
				for _, r := range []struct {
					name string
					got  float32
				}{{kern.name, got.acc[i*ld+j]}, {"gemmIndirectF32Go", goTile[c]}} {
					if bothNaN := w != w && r.got != r.got; !bothNaN && math.Float32bits(r.got) != math.Float32bits(w) {
						t.Fatalf("%s k=%d %s panel %d cell %d: %s = %v (%#08x), naive loop then staged epilogue %v (%#08x)",
							name, k, ep.name, p, c, r.name, r.got, math.Float32bits(r.got), w, math.Float32bits(w))
					}
				}
			}
		}
	}
}

// i16IndirectTileKernels are the pair tiles TestGemmIndirectI16Tile runs:
// the dispatched gemmIndirectI16 (on amd64 the PMADDWD assembly) and the Go
// tile itself.
var i16IndirectTileKernels = []struct {
	name string
	run  func(a []i16x2, base int, zero []i16x2, offs []int32, seg int, bp []i16x2, acc *[gemmMR * gemmNR]int32)
}{{"gemmIndirectI16", gemmIndirectI16}, {"gemmIndirectI16Go", gemmIndirectI16Go}}

// unpairRows is pairRows' inverse: each k-pair of src becomes its two int32
// values, so rows of kp pairs become rows of 2kp values, a padding zero
// included.
func unpairRows(src []i16x2) []int32 {
	dst := make([]int32, 2*len(src))
	for i, u := range src {
		dst[2*i], dst[2*i+1] = int32(int16(u)), int32(int16(u>>16))
	}
	return dst
}

// TestGemmIndirectI16Tile pins the pair tiles on the tables of
// indirectTileCases over the pairs() geometry — odd channel counts padded
// per tap — and on dense tables of every kp in denseTileKs, against the Go
// tile and the naive int32 loop (naiveGemmI32) over each tile's gathered
// rows: operands at random in [−255, 255], a quarter at ±255, and a dense
// table of every product at its largest, 255·−255. The tile writes its 32 sums and nothing else, and an
// empty table gives zeros.
func TestGemmIndirectI16Tile(t *testing.T) {
	for _, kern := range i16IndirectTileKernels {
		t.Run(kern.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(67))
			draw := func() int32 {
				if rng.Intn(4) == 0 {
					return int32(255 * (1 - 2*rng.Intn(2)))
				}
				return int32(rng.Intn(511) - 255)
			}
			drawPair := func() i16x2 { return pairOf(draw(), draw()) }
			check := func(name string, tab tileTable[i16x2], drawB func() int32) {
				a := unpairRows(gatherTile(tab))
				k := len(a) / gemmMR
				b := make([]int32, gemmNR*k)
				for i := range b {
					b[i] = drawB()
				}
				kp := k / 2
				bp := make([]i16x2, gemmNR*kp)
				packPanels(bp, pairRows(b, gemmNR, k), gemmNR, kp, kp, gemmNR)
				var want [gemmMR * gemmNR]int32
				naiveGemmI32(gemmMR, gemmNR, k, a, k, b, k, want[:], gemmNR)
				var goTile [gemmMR * gemmNR]int32
				gemmIndirectI16Go(tab.a, tab.base, tab.zero, tab.offs, tab.seg, bp, &goTile)
				var got struct {
					pre  [4]int32
					acc  [gemmMR * gemmNR]int32
					post [4]int32
				}
				for i := range got.acc {
					got.acc[i] = 42
				}
				got.pre, got.post = [4]int32{1, 2, 3, 4}, [4]int32{5, 6, 7, 8}
				kern.run(tab.a, tab.base, tab.zero, tab.offs, tab.seg, bp, &got.acc)
				if got.pre != [4]int32{1, 2, 3, 4} || got.post != [4]int32{5, 6, 7, 8} {
					t.Fatalf("%s kp=%d: %s wrote outside acc", name, kp, kern.name)
				}
				if got.acc != want || goTile != want {
					t.Fatalf("%s kp=%d: %s = %v, gemmIndirectI16Go %v, naive loop %v", name, kp, kern.name, got.acc, goTile, want)
				}
			}
			for _, cc := range indirectTileCases {
				g := convCaseGeom(cc)
				gp := g.pairs()
				din := make([]i16x2, cc.n*cc.h*cc.w*gp.c)
				for i := range din {
					din[i] = drawPair()
				}
				indirectTables(&gp, din, func(tab tileTable[i16x2]) { check(cc.name, tab, draw) })
			}
			for _, kp := range denseTileKs {
				denseTables(kp, drawPair, func(tab tileTable[i16x2]) { check("dense", tab, draw) })
			}
			// Every product at its largest: the sums' extremes.
			denseTables(4097, func() i16x2 { return pairOf(255, 255) }, func(tab tileTable[i16x2]) {
				check("dense-extreme", tab, func() int32 { return -255 })
			})
			acc := [gemmMR * gemmNR]int32{0: 9}
			kern.run(nil, 0, nil, nil, 0, nil, &acc)
			if acc != [gemmMR * gemmNR]int32{} {
				t.Fatalf("empty table: %s acc = %v, want zeros", kern.name, acc)
			}
		})
	}
}
