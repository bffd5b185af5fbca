//go:build linux && amd64 && !purego

package kernels

import (
	"os"
	"strings"
	"testing"
)

// TestCPUProbeMatchesKernel: hasAVX2 and hasAVX512 agree with the avx2
// and avx512f flags Linux lists in /proc/cpuinfo. The kernel drops a flag
// when XCR0 lacks the register state it needs, as the probe must, so a
// broken CPUID or XGETBV reading fails here instead of leaving the
// kernels on narrower lanes without a word.
func TestCPUProbeMatchesKernel(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
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
		t.Skip("/proc/cpuinfo lists no flags")
	}
	for name, probed := range map[string]bool{"avx2": hasAVX2, "avx512f": hasAVX512} {
		if probed != flags[name] {
			t.Errorf("probe says %s = %v, /proc/cpuinfo says %v", name, probed, flags[name])
		}
	}
}
