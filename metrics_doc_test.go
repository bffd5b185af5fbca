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
	registered := registeredFamilies(t)
	documented := map[string]bool{}
	for _, name := range readmeTableCodeSpans(t) {
		for _, name := range expandFamilies(name) {
			documented["mamdr_"+strings.TrimPrefix(name, "mamdr_")] = true
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

// TestDocumentedFamiliesRegistered is the converse: every family a
// README table cell names is registered under internal/, so a deleted
// series cannot leave its row behind. Only names with a subsystem
// prefix count, which keeps label values such as queue_full out.
func TestDocumentedFamiliesRegistered(t *testing.T) {
	registered := registeredFamilies(t)
	family := regexp.MustCompile(`^(mamdr_)?(ps|cluster|serve|quality|rollout|train|obs|slo|snapshot|build|fault)_[a-z0-9_]+$|^(mamdr_)?anomalies_[a-z0-9_]+$`)
	var stale []string
	for _, span := range readmeTableCodeSpans(t) {
		for _, name := range expandFamilies(span) {
			if !family.MatchString(name) {
				continue
			}
			if name = "mamdr_" + strings.TrimPrefix(name, "mamdr_"); !registered[name] {
				stale = append(stale, name)
			}
		}
	}
	if len(stale) > 0 {
		t.Errorf("README's tables name %d families that nothing under internal/ registers:\n%s",
			len(stale), strings.Join(stale, "\n"))
	}
}

// TestFlagTablesDefined: every backticked -flag in the first cell of a
// README table row is a flag that mamdr-train, mamdr-serve or mamdr-obs
// defines.
func TestFlagTablesDefined(t *testing.T) {
	defined := map[string]bool{}
	decl := regexp.MustCompile(`flag\.[A-Za-z0-9]+\("([a-z0-9-]+)"`)
	for _, cmd := range []string{"mamdr-train", "mamdr-serve", "mamdr-obs"} {
		src, err := os.ReadFile(filepath.Join("cmd", cmd, "main.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
	}
	if len(defined) < 50 {
		t.Fatalf("found %d flags in the three programs; the scan is broken", len(defined))
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	flagSpan := regexp.MustCompile("`-([a-z0-9][a-z0-9-]*)")
	var unknown []string
	for _, line := range strings.Split(string(readme), "\n") {
		cells := strings.Split(line, "|")
		if !strings.HasPrefix(line, "|") || len(cells) < 3 {
			continue
		}
		for _, m := range flagSpan.FindAllStringSubmatch(cells[1], -1) {
			if !defined[m[1]] {
				unknown = append(unknown, "-"+m[1])
			}
		}
	}
	if len(unknown) > 0 {
		t.Errorf("README's flag tables name flags no program defines: %s", strings.Join(unknown, " "))
	}
}

// registeredFamilies is every "mamdr_…" string literal in non-test Go
// under internal/: the families the code registers.
func registeredFamilies(t *testing.T) map[string]bool {
	t.Helper()
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
	return registered
}

// readmeTableCodeSpans returns the contents of every backticked span in
// README's table rows.
func readmeTableCodeSpans(t *testing.T) []string {
	t.Helper()
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	code := regexp.MustCompile("`([^`]+)`")
	var spans []string
	for _, line := range strings.Split(string(readme), "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		for _, m := range code.FindAllStringSubmatch(line, -1) {
			spans = append(spans, m[1])
		}
	}
	return spans
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
