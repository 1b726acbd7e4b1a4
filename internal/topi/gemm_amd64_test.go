package topi

import "repro/internal/cpuid"

// tileKernels are the f32 register tiles TestGemmMicroF32Tile runs one by one
// against gemmMicroF32Go.
var tileKernels = []tileKernel{
	{name: "sse2", panels: 1, run: narrowTile(gemmMicroF32SSE2)},
	{name: "avx", panels: 1, run: narrowTile(gemmMicroF32AVX), needs: "AVX", skip: !cpuid.AVX},
	{name: "ymm-4x16", panels: 2, run: gemmMicroF32YMM, needs: "AVX", skip: !cpuid.AVX},
	{name: "gemmMicroF32", panels: 1, run: narrowTile(gemmMicroF32)},
	{name: "gemmMicroF32Wide", panels: gemmWidePanels, run: func(ap, bp []float32, acc *[gemmMR * gemmWideNR]float32) {
		gemmMicroF32Wide(gemmWidePanels, ap, bp, acc)
	}},
}

// indirectTileKernels are the indirect f32 tiles TestGemmIndirectF32Tile
// runs one by one against the packed Go tile and the staged epilogue.
var indirectTileKernels = []indirectTileKernel{
	{name: "sse2", panels: 1, run: narrowIndirect(gemmIndirectF32SSE2)},
	{name: "avx", panels: 1, run: narrowIndirect(gemmIndirectF32AVX), needs: "AVX", skip: !cpuid.AVX},
	{name: "ymm-4x16", panels: 2, run: gemmIndirectF32YMM, needs: "AVX", skip: !cpuid.AVX},
	{name: "gemmIndirectF32Go", panels: 1, run: narrowIndirect(gemmIndirectF32Go)},
	{name: "gemmIndirectF32", panels: gemmWidePanels, run: func(rows [][]float32, bp []float32, bias *[gemmWideNR]float32, lo, hi float32, acc *[gemmMR * gemmWideNR]float32) {
		gemmIndirectF32(gemmWidePanels, rows, bp, bias, lo, hi, acc)
	}},
}
