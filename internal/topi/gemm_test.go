package topi

import (
	"fmt"
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
// tile multiples, primes that leave ragged edge tiles in both M and N, and
// K values around the ×4 unroll boundary.
var gemmDims = [][3]int{
	{1, 1, 1}, {1, 2, 3}, {2, 1, 5}, {3, 2, 4}, {4, 2, 8},
	{4, 4, 16}, {5, 3, 7}, {7, 11, 13}, {8, 6, 64}, {13, 7, 11},
	{17, 5, 29}, {23, 19, 3}, {31, 17, 23}, {64, 32, 9},
}

func TestGemmF32MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, d := range gemmDims {
		m, n, k := d[0], d[1], d[2]
		t.Run(fmt.Sprintf("m%d_n%d_k%d", m, n, k), func(t *testing.T) {
			a := make([]float32, m*k)
			b := make([]float32, n*k)
			for i := range a {
				a[i] = rng.Float32()*2 - 1
			}
			for i := range b {
				b[i] = rng.Float32()*2 - 1
			}
			bpack := make([]float32, gemmTiles(n, gemmNR)*gemmNR*k)
			packRHSF32(bpack, b, n, k, k)
			got := make([]float32, m*n)
			gemmF32(m, n, k, a, k, bpack, got, n)
			want := make([]float32, m*n)
			naiveGemmF32(m, n, k, a, k, b, k, want, n)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("c[%d]: blocked %v != naive %v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestGemmF32StridedOperands(t *testing.T) {
	// lda > k and ldc > n: the packed kernel must respect leading
	// dimensions when A rows and C rows are embedded in wider buffers.
	rng := rand.New(rand.NewSource(11))
	m, n, k := 9, 7, 13
	lda, ldc := k+5, n+3
	a := make([]float32, m*lda)
	b := make([]float32, n*k)
	for i := range a {
		a[i] = rng.Float32()*2 - 1
	}
	for i := range b {
		b[i] = rng.Float32()*2 - 1
	}
	bpack := make([]float32, gemmTiles(n, gemmNR)*gemmNR*k)
	packRHSF32(bpack, b, n, k, k)
	got := make([]float32, m*ldc)
	gemmF32(m, n, k, a, lda, bpack, got, ldc)
	want := make([]float32, m*ldc)
	naiveGemmF32(m, n, k, a, lda, b, k, want, ldc)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if got[i*ldc+j] != want[i*ldc+j] {
				t.Fatalf("c[%d,%d]: blocked %v != naive %v", i, j, got[i*ldc+j], want[i*ldc+j])
			}
		}
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
	af, bf, cf := make([]float32, m*k), make([]float32, gemmTiles(n, gemmNR)*gemmNR*k), make([]float32, m*n)
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
}

var convCases = []convCase{
	{name: "unit", n: 1, h: 8, w: 8, c: 3, oc: 4, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1},
	{name: "strided", n: 2, h: 9, w: 7, c: 3, oc: 5, kh: 3, kw: 3, sh: 2, sw: 2, dh: 1, dw: 1, groups: 1, pad: [4]int{1, 1, 1, 1}},
	{name: "dilated", n: 1, h: 11, w: 11, c: 2, oc: 3, kh: 3, kw: 3, sh: 1, sw: 1, dh: 2, dw: 2, groups: 1},
	{name: "grouped", n: 1, h: 8, w: 8, c: 4, oc: 6, kh: 3, kw: 3, sh: 1, sw: 1, dh: 1, dw: 1, groups: 2, pad: [4]int{1, 1, 1, 1}},
	{name: "asym-pad", n: 1, h: 7, w: 10, c: 3, oc: 4, kh: 2, kw: 3, sh: 2, sw: 1, dh: 1, dw: 1, groups: 1, pad: [4]int{0, 1, 2, 1}},
	{name: "pointwise", n: 1, h: 5, w: 5, c: 7, oc: 9, kh: 1, kw: 1, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1},
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

			// Small shapes dispatch to the direct kernel inside conv2DF32.
			direct, err := conv2DF32([]*tensor.Tensor{data, weight}, cc.attrs(), out, nil)
			if err != nil {
				t.Fatal(err)
			}
			blocked := conv2DF32Im2col(data, weight, cc.params(), out, nil, nil)
			d, b := direct.F32(), blocked.F32()
			for i := range d {
				if d[i] != b[i] {
					t.Fatalf("out[%d]: direct %v != im2col %v", i, d[i], b[i])
				}
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

			direct, err := qnnConv2D([]*tensor.Tensor{data, weight}, attrs, out, nil)
			if err != nil {
				t.Fatal(err)
			}
			blocked, err := conv2DQnnIm2col(data, weight, cc.params(), zpIn, zpK, out, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			d, b := direct.I32(), blocked.I32()
			for i := range d {
				if d[i] != b[i] {
					t.Fatalf("out[%d]: direct %d != im2col %d", i, d[i], b[i])
				}
			}
		})
	}
}
