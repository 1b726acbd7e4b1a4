//go:build !amd64

package topi

// tileKernels: without assembly the dispatched tile is gemmMicroF32Go
// itself, so the test compares it with the naive loop.
var tileKernels = []tileKernel{{name: "gemmMicroF32", run: gemmMicroF32}}
