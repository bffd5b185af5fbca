package exp

import (
	"fmt"
	"sort"
)

// Runner produces one or more tables in a session.
type Runner func(*Session) []*Table

// one lifts a single-table experiment into a Runner.
func one(f func(*Session) *Table) Runner {
	return func(s *Session) []*Table { return []*Table{f(s)} }
}

// Registry maps experiment ids (as used by `cmd/experiments -run`) to
// their runners.
var Registry = map[string]Runner{
	"table1":           one(TableI),
	"table2-4":         TableII_IV,
	"table5":           one(TableV),
	"table6":           one(TableVI),
	"table7":           one(TableVII),
	"table8":           one(TableVIII),
	"table9":           one(TableIX),
	"table10":          one(TableX),
	"figure8":          one(Figure8),
	"figure9":          one(Figure9),
	"ablation-dnorder": one(AblationDNOrder),
	"ablation-drorder": one(AblationDROrder),
	"ablation-cache":   one(AblationCache),
	"conflict-scaling": one(ConflictScaling),
	"conflict-cosine":  one(GradientConflictDiagnostic),
	"generalization":   one(GeneralizationLODO),
	"quant":            one(QuantTradeoff),
}

// Order lists experiment ids in presentation order.
var Order = []string{
	"table1", "table2-4", "table5", "table6", "table7",
	"table8", "table9", "table10", "figure8", "figure9",
	"ablation-dnorder", "ablation-drorder", "ablation-cache",
	"conflict-scaling", "conflict-cosine", "generalization", "quant",
}

// Run executes the named experiment in s.
func (s *Session) Run(id string) ([]*Table, error) {
	r, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (have %v)", id, Names())
	}
	return r(s), nil
}

// Names lists experiment ids sorted alphabetically.
func Names() []string {
	out := make([]string, 0, len(Registry))
	for k := range Registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
