package exp

import (
	"os"
	"strconv"
	"strings"
	"testing"
)

// All plumbing tests run at Tiny scale: they verify table structure,
// registry wiring and determinism, not result orderings (those are
// asserted in the core/framework tests and recorded in EXPERIMENTS.md).

func TestTableIStructure(t *testing.T) {
	tab := TableI(NewSession(Tiny))
	if len(tab.Rows) != 6 {
		t.Fatalf("Table I rows = %d, want 6 datasets", len(tab.Rows))
	}
	if len(tab.Header) != 8 {
		t.Fatalf("Table I header = %v", tab.Header)
	}
	for _, r := range tab.Rows {
		if len(r) != len(tab.Header) {
			t.Fatalf("row %v does not match header", r)
		}
	}
}

func TestTableII_IVStructure(t *testing.T) {
	tabs := TableII_IV(NewSession(Tiny))
	if len(tabs) != 3 {
		t.Fatalf("got %d tables, want 3", len(tabs))
	}
	wantRows := []int{6, 13, 30}
	for i, tab := range tabs {
		if len(tab.Rows) != wantRows[i] {
			t.Fatalf("%s rows = %d, want %d", tab.ID, len(tab.Rows), wantRows[i])
		}
	}
}

func TestTableVStructure(t *testing.T) {
	tab := TableV(NewSession(Tiny))
	if len(tab.Rows) != len(tableVMethods) {
		t.Fatalf("rows = %d, want %d methods", len(tab.Rows), len(tableVMethods))
	}
	// Header: Method + 2 columns per dataset.
	if len(tab.Header) != 1+2*5 {
		t.Fatalf("header = %v", tab.Header)
	}
	for _, r := range tab.Rows {
		for _, cell := range r[1:] {
			if cell == "" || cell == "NaN" {
				t.Fatalf("empty/NaN cell in %v", r)
			}
		}
	}
}

func TestTableVIAndVIIStructure(t *testing.T) {
	vi := TableVI(NewSession(Tiny))
	if len(vi.Rows) != 4 || len(vi.Header) != 6 {
		t.Fatalf("Table VI shape: %d rows, header %v", len(vi.Rows), vi.Header)
	}
	vii := TableVII(NewSession(Tiny))
	if len(vii.Rows) != 4 || len(vii.Header) != 7 {
		t.Fatalf("Table VII shape: %d rows, header %v", len(vii.Rows), vii.Header)
	}
}

func TestTableVIIIAndIXStructure(t *testing.T) {
	viii := TableVIII(NewSession(Tiny))
	if len(viii.Rows) != len(tableVIIIMethods) {
		t.Fatalf("Table VIII rows = %d", len(viii.Rows))
	}
	ix := TableIX(NewSession(Tiny))
	if len(ix.Rows) != len(tableVIIIMethods) {
		t.Fatalf("Table IX rows = %d", len(ix.Rows))
	}
	if len(ix.Header) != 1+6 { // Tiny has 6 industry domains
		t.Fatalf("Table IX header = %v", ix.Header)
	}
}

func TestTableXStructure(t *testing.T) {
	tab := TableX(NewSession(Tiny))
	if len(tab.Rows) != len(tableXModels) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if len(tab.Header) != 1+len(tableXFrameworks) {
		t.Fatalf("header = %v", tab.Header)
	}
}

func TestFiguresStructure(t *testing.T) {
	f8 := Figure8(NewSession(Tiny))
	if len(f8.Rows) != 5 {
		t.Fatalf("Figure 8 rows = %d, want 5 k values", len(f8.Rows))
	}
	f9 := Figure9(NewSession(Tiny))
	if len(f9.Rows) != 3 || len(f9.Header) != 5 {
		t.Fatalf("Figure 9 shape: %d rows, header %v", len(f9.Rows), f9.Header)
	}
}

func TestAblationsRun(t *testing.T) {
	for _, f := range []func(*Session) *Table{AblationDNOrder, AblationDROrder, AblationCache, GradientConflictDiagnostic} {
		tab := f(NewSession(Tiny))
		if len(tab.Rows) == 0 {
			t.Fatalf("%s produced no rows", tab.ID)
		}
	}
}

func TestConflictScalingStructure(t *testing.T) {
	tab := ConflictScaling(NewSession(Tiny))
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestMarkdownRendering(t *testing.T) {
	tab := &Table{
		ID: "T", Title: "demo",
		Header: []string{"A", "B"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"note"},
	}
	md := tab.Markdown()
	for _, want := range []string{"### T — demo", "| A | B |", "| --- | --- |", "| 1 | 2 |", "> note"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestRegistryRunsEverything(t *testing.T) {
	if len(Order) != len(Registry) {
		t.Fatalf("Order lists %d ids, registry has %d", len(Order), len(Registry))
	}
	for _, id := range Order {
		if _, ok := Registry[id]; !ok {
			t.Fatalf("Order references unknown id %q", id)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := NewSession(Tiny).Run("tablezzz"); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunKnown(t *testing.T) {
	tabs, err := NewSession(Tiny).Run("table1")
	if err != nil || len(tabs) != 1 {
		t.Fatalf("Run(table1) = %v, %v", tabs, err)
	}
}

// TestDeterministicTables compares two sessions: inside one, the
// second render would reuse the first's fits and prove nothing.
func TestDeterministicTables(t *testing.T) {
	a := TableVI(NewSession(Tiny)).Markdown()
	b := TableVI(NewSession(Tiny)).Markdown()
	if a != b {
		t.Fatal("Table VI not deterministic across runs")
	}
}

func TestQuantTradeoffStructure(t *testing.T) {
	tab := QuantTradeoff(NewSession(Tiny))
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want amazon-6 + zipf variant", len(tab.Rows))
	}
	if len(tab.Header) != 7 {
		t.Fatalf("header = %v", tab.Header)
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("row %v misaligned with header %v", row, tab.Header)
		}
	}
	// The compression column is exact arithmetic: (8·cols)/(cols+4).
	if got := tab.Rows[0][6]; got != "5.3x" {
		t.Fatalf("compression = %q, want 5.3x for cols=8", got)
	}
}

// TestQuantAUCBudget is the smoke-batch acceptance gate: at Quick
// scale the amazon-6 int8 serving snapshot must cost at most 0.002
// AUC versus exact float64 composition. Gated behind MAMDR_SMOKE_BATCH
// because Quick-scale training is too slow for the tier-1 suite; run
// via `make smoke-batch`.
func TestQuantAUCBudget(t *testing.T) {
	if os.Getenv("MAMDR_SMOKE_BATCH") == "" {
		t.Skip("set MAMDR_SMOKE_BATCH=1 (make smoke-batch) to run the Quick-scale quant AUC gate")
	}
	tab := QuantTradeoff(NewSession(Quick))
	for _, row := range tab.Rows {
		delta, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("ΔAUC cell %q: %v", row[3], err)
		}
		t.Logf("%s: AUC fp64=%s int8=%s Δ=%+.4f", row[0], row[1], row[2], delta)
		if strings.EqualFold(row[0], "amazon-6") && delta < -0.002 {
			t.Fatalf("amazon-6 int8 AUC delta %+.4f exceeds the -0.002 budget", delta)
		}
	}
}

// TestSharedSessionMatchesFresh runs every experiment in one session and
// each in a fresh session of its own: the tables must match byte for
// byte, and the shared session must train each fit that several tables
// show once (171 distinct arms, where fresh sessions train 199 fits).
// Conflict Scaling's cells are wall times, and the PS-cache ablation's
// AUC does not reproduce (its pushes are asynchronous), so neither is
// compared.
func TestSharedSessionMatchesFresh(t *testing.T) {
	render := func(s *Session, id string) string {
		tabs, err := s.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, tab := range tabs {
			if id == "ablation-cache" {
				for _, r := range tab.Rows {
					r[1] = ""
				}
			}
			b.WriteString(tab.Markdown())
		}
		return b.String()
	}
	shared, freshFits := NewSession(Tiny), 0
	for _, id := range Order {
		if id == "conflict-scaling" {
			continue
		}
		fresh := NewSession(Tiny)
		if got, want := render(shared, id), render(fresh, id); got != want {
			t.Errorf("%s in a shared session:\n%s\nin a fresh one:\n%s", id, got, want)
		}
		freshFits += len(fresh.fits)
	}
	if len(shared.fits) != 171 || freshFits != 199 {
		t.Fatalf("shared session trained %d arms, fresh sessions %d fits; want 171 and 199", len(shared.fits), freshFits)
	}
}

// TestSessionTrainsSharedArmsOnce: Table VII is Table VI's Amazon-6
// column and Table IX is Table VIII's runs, so the second table of each
// pair trains nothing new.
func TestSessionTrainsSharedArmsOnce(t *testing.T) {
	for _, c := range []struct {
		ids  []string
		arms int
	}{{[]string{"table6", "table7"}, 20}, {[]string{"table8", "table9"}, 7}} {
		s := NewSession(Tiny)
		for _, id := range c.ids {
			if _, err := s.Run(id); err != nil {
				t.Fatal(err)
			}
		}
		if len(s.fits) != c.arms {
			t.Errorf("%v trained %d arms, want %d", c.ids, len(s.fits), c.arms)
		}
	}
}
