//go:build !amd64

package topi

// tileKernels: without assembly the dispatched tiles are gemmMicroF32Go
// itself, so the test compares them with the naive loop.
var tileKernels = []tileKernel{
	{name: "gemmMicroF32", panels: 1, run: narrowTile(gemmMicroF32)},
	{name: "gemmMicroF32Wide", panels: 1, run: func(ap, bp []float32, acc *[gemmMR * gemmWideNR]float32) {
		gemmMicroF32Wide(1, ap, bp, acc)
	}},
}

// indirectTileKernels: without assembly the dispatched indirect tile is the
// Go tile itself.
var indirectTileKernels = []indirectTileKernel{
	{name: "gemmIndirectF32Go", panels: 1, run: narrowIndirect(gemmIndirectF32Go)},
	{name: "gemmIndirectF32", panels: 1, run: func(rows [][]float32, bp []float32, bias *[gemmWideNR]float32, lo, hi float32, acc *[gemmMR * gemmWideNR]float32) {
		gemmIndirectF32(1, rows, bp, bias, lo, hi, acc)
	}},
}
