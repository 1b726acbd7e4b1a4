// Package cpuid reads, once at init, the x86 vector features the kernels
// dispatch on. Nothing sets them: a kernel either takes its vector body on a
// host that has the feature or its Go loop everywhere else, and the two are
// pinned bit-equal by the kernel's own tests.
package cpuid

// AVX: the CPU has AVX and the OS saves YMM state across a context switch.
// AVX2: also AVX2. Both are false on every architecture but amd64.
var AVX, AVX2 = features()
