package cpuid

// features is the CPUID/XGETBV test, in cpuid_amd64.s.
func features() (avx, avx2 bool)
