//go:build !amd64

package cpuid

// features: no x86 vector body exists off amd64.
func features() (avx, avx2 bool) { return false, false }
