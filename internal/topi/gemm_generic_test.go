//go:build !amd64

package topi

// indirectTileKernels: without assembly the dispatched tile is the Go tile
// itself, so the test compares it with the naive loop.
var indirectTileKernels = []indirectTileKernel{
	{name: "gemmIndirectF32Go", panels: 1, run: narrowIndirect(gemmIndirectF32Go)},
	{name: "gemmIndirectF32", panels: 1, run: func(a []float32, base int, zero []float32, offs []int32, seg int, bp []float32, bias *[gemmWideNR]float32, lo, hi float32, acc *[gemmMR * gemmWideNR]float32) {
		gemmIndirectF32(1, a, base, zero, offs, seg, bp, bias, lo, hi, acc)
	}},
}
