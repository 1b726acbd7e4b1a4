package topi

// tileKernels are the f32 register tiles TestGemmMicroF32Tile runs one by one
// against gemmMicroF32Go.
var tileKernels = []tileKernel{
	{name: "sse2", run: gemmMicroF32SSE2},
	{name: "avx", run: gemmMicroF32AVX, skip: !useAVX},
	{name: "gemmMicroF32", run: gemmMicroF32},
}
