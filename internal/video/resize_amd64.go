package video

import (
	"unsafe"

	"repro/internal/cpuid"
)

// blendVec runs blendRows' loop over the leading multiple of four lanes of
// out in YMM vectors where the CPU has AVX, and returns how many it did.
// a0, b0, a1 and b1 are len(out) long.
//
//np:hotpath
func blendVec(out []float32, a0, b0, a1, b1 []float64, wy0, wy1 float64) int {
	n := len(out) &^ 3
	if !cpuid.AVX || n == 0 {
		return 0
	}
	blendAVX(unsafe.Pointer(&out[0]), unsafe.Pointer(&a0[0]), unsafe.Pointer(&b0[0]),
		unsafe.Pointer(&a1[0]), unsafe.Pointer(&b1[0]), n, wy0, wy1)
	return n
}

// blendAVX is blendVec's body in resize_amd64.s; n is a positive multiple
// of 4.
//
//go:noescape
func blendAVX(out, a0, b0, a1, b1 unsafe.Pointer, n int, wy0, wy1 float64)

// rowProductsVec runs rowProducts over every column where the CPU has AVX
// and reports whether it did. a and b are 3·len(cols) long; every tap lies
// inside row.
//
//np:hotpath
func rowProductsVec(a, b []float64, row []float32, cols []colTap) bool {
	if !cpuid.AVX || len(cols) == 0 {
		return false
	}
	_, _ = a[3*len(cols)-1], b[3*len(cols)-1]
	rowProductsAVX(unsafe.Pointer(&a[0]), unsafe.Pointer(&b[0]), unsafe.Pointer(&row[0]), unsafe.Pointer(&cols[0]), len(cols))
	return true
}

// rowProductsAVX is rowProductsVec's body in resize_amd64.s; n is positive.
//
//go:noescape
func rowProductsAVX(a, b, row, cols unsafe.Pointer, n int)
