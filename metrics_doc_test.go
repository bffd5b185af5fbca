package mamdr

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestMetricFamiliesDocumented: every "mamdr_…" family name written in
// non-test code under internal/ is named in one of README's metrics
// tables. A table cell names a family in backticks, with or without the
// mamdr_ prefix; "{a,b}" right after an underscore stands for one name
// per alternative, and a "{…}" block after a name lists its labels.
func TestMetricFamiliesDocumented(t *testing.T) {
	literal := regexp.MustCompile(`"(mamdr_[a-z0-9_]+)"`)
	registered := map[string]bool{}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range literal.FindAllSubmatch(src, -1) {
			registered[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(registered) < 50 {
		t.Fatalf("found %d mamdr_* families under internal/; the scan is broken", len(registered))
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	code := regexp.MustCompile("`([^`]+)`")
	documented := map[string]bool{}
	for _, line := range strings.Split(string(readme), "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		for _, m := range code.FindAllStringSubmatch(line, -1) {
			for _, name := range expandFamilies(m[1]) {
				documented["mamdr_"+strings.TrimPrefix(name, "mamdr_")] = true
			}
		}
	}
	var missing []string
	for name := range registered {
		if !documented[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("README's metrics tables name %d of %d registered families; missing:\n%s",
			len(registered)-len(missing), len(registered), strings.Join(missing, "\n"))
	}
}

// expandFamilies lists the family names one code span names:
// "ps_cache_{hits,misses}_total{tensor}" gives ps_cache_hits_total and
// ps_cache_misses_total.
func expandFamilies(s string) []string {
	open := strings.IndexByte(s, '{')
	if open < 0 {
		return []string{s}
	}
	end := strings.IndexByte(s[open:], '}')
	if end < 0 {
		return []string{s}
	}
	end += open
	if open == 0 || s[open-1] != '_' {
		return []string{s[:open]} // a label block ends the name
	}
	var out []string
	for _, alt := range strings.Split(s[open+1:end], ",") {
		out = append(out, expandFamilies(s[:open]+alt+s[end+1:])...)
	}
	return out
}
