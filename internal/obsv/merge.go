package obsv

import (
	"fmt"
	"io"
	"sort"

	"mamdr/internal/telemetry"
)

// Fleet is the federated view of N scraped registries: every family
// merged by name, every series annotated with the instance and role it
// came from. Families keep first-seen order; series within a family
// are sorted by label signature, so two Federate calls over the same
// snapshots render byte-identical expositions.
type Fleet struct {
	// Instances records which processes contributed, in scrape order.
	Instances []InstanceInfo `json:"instances"`
	// Families is the merged per-instance view (instance/role labels
	// added to every series).
	Families []telemetry.FamilySnapshot `json:"families"`
}

// InstanceInfo identifies one contributing process.
type InstanceInfo struct {
	Role          string `json:"role"`
	Instance      string `json:"instance"`
	TakenUnixNano int64  `json:"taken_unix_nano"`
	Series        int    `json:"series"`
}

// Federate merges snapshots into one per-instance fleet view. Families
// sharing a name must agree on kind and (for histograms) bucket
// schema; a mismatch is rejected loudly — silently coercing bucket
// layouts would corrupt every percentile read off the merged data.
func Federate(snaps []telemetry.RegistrySnapshot) (*Fleet, error) {
	f := &Fleet{}
	byName := map[string]int{}
	for _, snap := range snaps {
		info := InstanceInfo{Role: snap.Role, Instance: snap.Instance, TakenUnixNano: snap.TakenUnixNano}
		for _, fam := range snap.Families {
			idx, ok := byName[fam.Name]
			if !ok {
				idx = len(f.Families)
				byName[fam.Name] = idx
				f.Families = append(f.Families, telemetry.FamilySnapshot{
					Name: fam.Name, Help: fam.Help, Kind: fam.Kind,
					Bounds: append([]float64(nil), fam.Bounds...),
				})
			} else if err := compatible(f.Families[idx], fam, snap.Instance); err != nil {
				return nil, err
			}
			for _, se := range fam.Series {
				labeled := telemetry.SeriesSnapshot{
					Labels: fleetLabels(se.Labels, snap.Instance, snap.Role),
					Value:  se.Value,
					Sum:    se.Sum,
					Count:  se.Count,
				}
				if len(se.Buckets) > 0 {
					labeled.Buckets = append([]int64(nil), se.Buckets...)
				}
				f.Families[idx].Series = append(f.Families[idx].Series, labeled)
				info.Series++
			}
		}
		f.Instances = append(f.Instances, info)
	}
	for i := range f.Families {
		sortSeries(f.Families[i].Series)
	}
	return f, nil
}

// Aggregate collapses snapshots into fleet totals: series with the
// same family and label set are merged across instances — counters and
// gauges sum their values, histograms merge bucket-wise (schemas must
// match exactly) and add their sums and counts. The result is what the
// SLO engine burns against: one series per logical metric, regardless
// of how many processes emit it.
func Aggregate(snaps []telemetry.RegistrySnapshot) ([]telemetry.FamilySnapshot, error) {
	var out []telemetry.FamilySnapshot
	byName := map[string]int{}
	type key struct {
		fam int
		sig string
	}
	bySeries := map[key]int{}
	for _, snap := range snaps {
		for _, fam := range snap.Families {
			idx, ok := byName[fam.Name]
			if !ok {
				idx = len(out)
				byName[fam.Name] = idx
				out = append(out, telemetry.FamilySnapshot{
					Name: fam.Name, Help: fam.Help, Kind: fam.Kind,
					Bounds: append([]float64(nil), fam.Bounds...),
				})
			} else if err := compatible(out[idx], fam, snap.Instance); err != nil {
				return nil, err
			}
			for _, se := range fam.Series {
				k := key{fam: idx, sig: telemetry.Signature(se.Labels)}
				si, ok := bySeries[k]
				if !ok {
					si = len(out[idx].Series)
					bySeries[k] = si
					fresh := telemetry.SeriesSnapshot{Labels: sortedLabels(se.Labels)}
					if fam.Kind == "histogram" {
						fresh.Buckets = make([]int64, len(fam.Bounds)+1)
					}
					out[idx].Series = append(out[idx].Series, fresh)
				}
				dst := &out[idx].Series[si]
				dst.Value += se.Value
				dst.Sum += se.Sum
				dst.Count += se.Count
				for b := range se.Buckets {
					dst.Buckets[b] += se.Buckets[b]
				}
			}
		}
	}
	for i := range out {
		sortSeries(out[i].Series)
	}
	return out, nil
}

// compatible rejects family merges that would mix kinds or bucket
// schemas.
func compatible(have telemetry.FamilySnapshot, next telemetry.FamilySnapshot, instance string) error {
	if have.Kind != next.Kind {
		return fmt.Errorf("obsv: family %s: kind %q from instance %q conflicts with %q",
			next.Name, next.Kind, instance, have.Kind)
	}
	if len(have.Bounds) != len(next.Bounds) {
		return fmt.Errorf("obsv: histogram %s: instance %q has %d bucket bounds, fleet schema has %d — refusing to merge mismatched schemas",
			next.Name, instance, len(next.Bounds), len(have.Bounds))
	}
	for i := range have.Bounds {
		if have.Bounds[i] != next.Bounds[i] {
			return fmt.Errorf("obsv: histogram %s: instance %q bound[%d]=%g differs from fleet schema %g — refusing to merge mismatched schemas",
				next.Name, instance, i, next.Bounds[i], have.Bounds[i])
		}
	}
	return nil
}

// fleetLabels returns the series labels plus instance/role, sorted by
// name. A series-level instance/role label from the source wins — the
// source knows better than the scraper.
func fleetLabels(labels []telemetry.Label, instance, role string) []telemetry.Label {
	out := make([]telemetry.Label, 0, len(labels)+2)
	hasInstance, hasRole := false, false
	for _, l := range labels {
		if l.Name == "instance" {
			hasInstance = true
		}
		if l.Name == "role" {
			hasRole = true
		}
		out = append(out, l)
	}
	if !hasInstance && instance != "" {
		out = append(out, telemetry.L("instance", instance))
	}
	if !hasRole && role != "" {
		out = append(out, telemetry.L("role", role))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func sortedLabels(labels []telemetry.Label) []telemetry.Label {
	out := append([]telemetry.Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func sortSeries(ss []telemetry.SeriesSnapshot) {
	sort.Slice(ss, func(i, j int) bool { return telemetry.Signature(ss[i].Labels) < telemetry.Signature(ss[j].Labels) })
}

// WritePrometheus renders the federated view through the registry's own
// text writer, so the same scrapers and validators read both.
func (f *Fleet) WritePrometheus(w io.Writer) error {
	return telemetry.WriteFamilies(w, f.Families)
}
