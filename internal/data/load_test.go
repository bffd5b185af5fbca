package data_test

import (
	"os"
	"path/filepath"
	"testing"

	"mamdr/internal/data"
	"mamdr/internal/models"
	"mamdr/internal/synth"
)

// saved is ds as SaveJSON writes it.
func saved(tb testing.TB, ds *data.Dataset) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "ds.json")
	if err := data.SaveJSON(ds, path); err != nil {
		tb.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// loadBytes is LoadJSON of a file holding b.
func loadBytes(tb testing.TB, path string, b []byte) (*data.Dataset, error) {
	tb.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		tb.Fatal(err)
	}
	return data.LoadJSON(path)
}

// nullDomain is a dataset whose one domain is JSON null.
const nullDomain = `{"Name":"x","NumUsers":0,"NumItems":0,"Domains":[null]}`

// taobao10 is the taobao-10 preset at 2,000 samples, seed 1, its fixed
// features 16 wide.
func taobao10() *data.Dataset { return synth.Generate(synth.Taobao10(2000, 1)) }

// shortUserRow is taobao10 with user 1's fixed vector cut to 3 values.
func shortUserRow() *data.Dataset {
	ds := taobao10()
	ds.FixedUserVecs[1] = ds.FixedUserVecs[1][:3]
	return ds
}

// narrowItems is taobao10 with every item's fixed vector cut to 8
// values: one width per table, but not the user width.
func narrowItems() *data.Dataset {
	ds := taobao10()
	for i, v := range ds.FixedItemVecs {
		ds.FixedItemVecs[i] = v[:8]
	}
	return ds
}

func TestLoadJSONRejectsNullDomain(t *testing.T) {
	if _, err := loadBytes(t, filepath.Join(t.TempDir(), "null.json"), []byte(nullDomain)); err == nil {
		t.Fatal("LoadJSON accepted a null domain")
	}
}

func TestLoadJSONRejectsRaggedFixedVecs(t *testing.T) {
	if _, err := loadBytes(t, filepath.Join(t.TempDir(), "ragged.json"), saved(t, shortUserRow())); err == nil {
		t.Fatal("LoadJSON accepted fixed user vectors of two widths")
	}
}

func TestLoadJSONRejectsUserItemWidthMismatch(t *testing.T) {
	if _, err := loadBytes(t, filepath.Join(t.TempDir(), "narrow.json"), saved(t, narrowItems())); err == nil {
		t.Fatal("LoadJSON accepted item vectors narrower than the user vectors")
	}
}

// FuzzDatasetJSON: a file LoadJSON accepts builds an mlp that scores a
// batch of each domain with interactions, without a panic. The model is
// built only while its tables stay small, so an input cannot ask for
// gigabytes.
func FuzzDatasetJSON(f *testing.F) {
	learned := synth.Amazon6(120, 1)
	learned.NumUsers, learned.NumItems = 20, 30
	fixed := synth.Taobao10(120, 1)
	fixed.NumUsers, fixed.NumItems = 20, 30
	for _, ds := range []*data.Dataset{synth.Generate(learned), synth.Generate(fixed), shortUserRow(), narrowItems()} {
		f.Add(saved(f, ds))
	}
	f.Add([]byte(nullDomain))
	path := filepath.Join(f.TempDir(), "fuzz.json")
	f.Fuzz(func(t *testing.T, raw []byte) {
		ds, err := loadBytes(t, path, raw)
		if err != nil {
			return
		}
		const limit = 1 << 16
		cells := 0
		for _, fl := range ds.Schema.Fields() {
			if fl.Vocab > limit {
				return
			}
			cells += fl.Vocab
		}
		if ds.HasFixedFeatures() && len(ds.FixedUserVecs[0]) > limit {
			return
		}
		if cells > limit {
			return
		}
		m := models.MustNew("mlp", models.Config{Dataset: ds, EmbDim: 2, Hidden: []int{4}, Seed: 1})
		for d, dom := range ds.Domains {
			ins := append(append(append([]data.Interaction(nil), dom.Train...), dom.Val...), dom.Test...)
			if len(ins) == 0 {
				continue
			}
			m.Forward(ds.MakeBatch(d, ins[:min(len(ins), 64)]), false).Release()
		}
	})
}
