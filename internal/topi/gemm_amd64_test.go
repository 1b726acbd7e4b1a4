package topi

import (
	"os"
	"strings"
	"testing"
)

// tileKernels are the f32 register tiles TestGemmMicroF32Tile runs one by one
// against gemmMicroF32Go.
var tileKernels = []tileKernel{
	{name: "sse2", panels: 1, run: narrowTile(gemmMicroF32SSE2)},
	{name: "avx", panels: 1, run: narrowTile(gemmMicroF32AVX), needs: "AVX", skip: !useAVX},
	{name: "ymm-4x16", panels: 2, run: gemmMicroF32YMM, needs: "AVX", skip: !useAVX},
	{name: "gemmMicroF32", panels: 1, run: narrowTile(gemmMicroF32)},
	{name: "gemmMicroF32Wide", panels: gemmWidePanels, run: func(ap, bp []float32, acc *[gemmMR * gemmWideNR]float32) {
		gemmMicroF32Wide(gemmWidePanels, ap, bp, acc)
	}},
}

// TestCPUFeaturesMatchCPUInfo compares the CPUID/XGETBV bits with the flags
// the Linux kernel reports, which it lists only for features whose register
// state it saves.
func TestCPUFeaturesMatchCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to compare with: %v", err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(info), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if len(flags) == 0 {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	for _, c := range []struct {
		flag string
		got  bool
	}{{"avx", useAVX}, {"avx2", useAVX2}, {"avx512f", useAVX512}} {
		if c.got != flags[c.flag] {
			t.Errorf("CPUID says %s = %v, /proc/cpuinfo says %v", c.flag, c.got, flags[c.flag])
		}
	}
}
