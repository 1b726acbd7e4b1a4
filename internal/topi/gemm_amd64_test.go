package topi

import "repro/internal/cpuid"

// indirectTileKernels are the f32 tiles TestGemmIndirectF32Tile runs one by
// one against the Go tile and the naive loop with the staged epilogue.
var indirectTileKernels = []indirectTileKernel{
	{name: "sse2", panels: 1, run: narrowIndirect(gemmIndirectF32SSE2)},
	{name: "avx", panels: 1, run: narrowIndirect(gemmIndirectF32AVX), needs: "AVX", skip: !cpuid.AVX},
	{name: "ymm-4x16", panels: 2, run: gemmIndirectF32YMM, needs: "AVX", skip: !cpuid.AVX},
	{name: "gemmIndirectF32Go", panels: 1, run: narrowIndirect(gemmIndirectF32Go)},
	{name: "gemmIndirectF32", panels: gemmWidePanels, run: func(a []float32, base int, zero []float32, offs []int32, seg int, bp []float32, bias *[gemmWideNR]float32, lo, hi float32, acc *[gemmMR * gemmWideNR]float32) {
		gemmIndirectF32(gemmWidePanels, a, base, zero, offs, seg, bp, bias, lo, hi, acc)
	}},
}
