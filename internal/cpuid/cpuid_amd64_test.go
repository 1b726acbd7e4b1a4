package cpuid

import (
	"os"
	"strings"
	"testing"
)

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
	}{{"avx", AVX}, {"avx2", AVX2}} {
		if c.got != flags[c.flag] {
			t.Errorf("CPUID says %s = %v, /proc/cpuinfo says %v", c.flag, c.got, flags[c.flag])
		}
	}
}
