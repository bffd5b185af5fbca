package data

import (
	"math/rand"
	"path/filepath"
	"testing"
)

// tinyDataset builds a hand-rolled 2-domain dataset for unit tests.
func tinyDataset() *Dataset {
	return &Dataset{
		Name:     "tiny",
		NumUsers: 3,
		NumItems: 2,
		Schema: Schema{
			UserFields: []Field{{Name: "user_id", Vocab: 3}, {Name: "seg", Vocab: 2}},
			ItemFields: []Field{{Name: "item_id", Vocab: 2}},
		},
		UserFeatures: [][]int{{0, 1}, {1, 0}, {2, 1}},
		ItemFeatures: [][]int{{0}, {1}},
		Domains: []*Domain{
			{
				ID: 0, Name: "d0", CTRRatio: 0.3,
				Train: []Interaction{{User: 0, Item: 0, Label: 1}, {User: 1, Item: 1, Label: 0}, {User: 2, Item: 0, Label: 1}},
				Val:   []Interaction{{User: 0, Item: 1, Label: 0}},
				Test:  []Interaction{{User: 2, Item: 1, Label: 1}},
			},
			{
				ID: 1, Name: "d1", CTRRatio: 0.4,
				Train: []Interaction{{User: 1, Item: 0, Label: 0}},
				Val:   []Interaction{{User: 2, Item: 0, Label: 1}},
				Test:  []Interaction{{User: 0, Item: 0, Label: 0}},
			},
		},
	}
}

func TestValidateAcceptsGoodDataset(t *testing.T) {
	if err := tinyDataset().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadUser(t *testing.T) {
	d := tinyDataset()
	d.Domains[0].Train[0].User = 99
	if err := d.Validate(); err == nil {
		t.Fatal("expected validation error for bad user id")
	}
}

func TestValidateCatchesBadLabel(t *testing.T) {
	d := tinyDataset()
	d.Domains[1].Test[0].Label = 0.5
	if err := d.Validate(); err == nil {
		t.Fatal("expected validation error for non-binary label")
	}
}

func TestValidateCatchesVocabOverflow(t *testing.T) {
	d := tinyDataset()
	d.UserFeatures[0][1] = 5 // seg vocab is 2
	if err := d.Validate(); err == nil {
		t.Fatal("expected validation error for vocab overflow")
	}
}

func TestValidateCatchesFeatureRowCount(t *testing.T) {
	d := tinyDataset()
	d.UserFeatures = d.UserFeatures[:2]
	if err := d.Validate(); err == nil {
		t.Fatal("expected validation error for missing feature rows")
	}
}

func TestSplitString(t *testing.T) {
	if Train.String() != "train" || Val.String() != "val" || Test.String() != "test" {
		t.Fatal("split names wrong")
	}
}

func TestDomainSamples(t *testing.T) {
	d := tinyDataset().Domains[0]
	if d.Samples() != 5 {
		t.Fatalf("Samples = %d, want 5", d.Samples())
	}
}

func TestMakeBatchResolvesFields(t *testing.T) {
	d := tinyDataset()
	b := d.MakeBatch(0, d.Domains[0].Train)
	if b.Size() != 3 {
		t.Fatalf("batch size = %d, want 3", b.Size())
	}
	if len(b.FieldValues) != 3 {
		t.Fatalf("field count = %d, want 3", len(b.FieldValues))
	}
	// Sample 1 is user 1 (features {1, 0}) and item 1 (features {1}).
	if b.FieldValues[0][1] != 1 || b.FieldValues[1][1] != 0 || b.FieldValues[2][1] != 1 {
		t.Fatalf("resolved fields wrong: %v", b.FieldValues)
	}
	if b.Labels[0] != 1 || b.Labels[1] != 0 {
		t.Fatal("labels wrong")
	}
	if b.Domain != 0 {
		t.Fatal("domain id wrong")
	}
}

func TestBatchesCoverAllSamplesOnce(t *testing.T) {
	d := tinyDataset()
	rng := rand.New(rand.NewSource(1))
	batches := d.Batches(0, Train, 2, rng)
	if len(batches) != 2 {
		t.Fatalf("batch count = %d, want 2", len(batches))
	}
	seen := map[[2]int]int{}
	total := 0
	for _, b := range batches {
		total += b.Size()
		for i := range b.Users {
			seen[[2]int{b.Users[i], b.Items[i]}]++
		}
	}
	if total != 3 {
		t.Fatalf("total samples = %d, want 3", total)
	}
	for pair, n := range seen {
		if n != 1 {
			t.Fatalf("pair %v seen %d times", pair, n)
		}
	}
}

func TestBatchesDeterministicWithoutRng(t *testing.T) {
	d := tinyDataset()
	a := d.Batches(0, Train, 10, nil)
	b := d.Batches(0, Train, 10, nil)
	for i := range a[0].Users {
		if a[0].Users[i] != b[0].Users[i] {
			t.Fatal("nil-rng batching not deterministic")
		}
	}
}

func TestBatchesBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for batch size 0")
		}
	}()
	tinyDataset().Batches(0, Train, 0, nil)
}

func TestFullBatch(t *testing.T) {
	d := tinyDataset()
	b := d.FullBatch(1, Test)
	if b.Size() != 1 || b.Users[0] != 0 {
		t.Fatal("FullBatch wrong")
	}
}

func TestStats(t *testing.T) {
	d := tinyDataset()
	stats := d.Stats()
	if len(stats) != 2 {
		t.Fatalf("stat rows = %d", len(stats))
	}
	if stats[0].Samples != 5 || stats[1].Samples != 3 {
		t.Fatalf("sample counts = %d/%d", stats[0].Samples, stats[1].Samples)
	}
	if stats[0].Percentage < 62 || stats[0].Percentage > 63 {
		t.Fatalf("percentage = %g, want 62.5", stats[0].Percentage)
	}
}

func TestOverall(t *testing.T) {
	o := tinyDataset().Overall()
	if o.NumDomains != 2 || o.TrainSamples != 4 || o.ValSamples != 2 || o.TestSamples != 2 {
		t.Fatalf("overall = %+v", o)
	}
	if o.SamplesPerDomain != 4 {
		t.Fatalf("samples/domain = %d, want 4", o.SamplesPerDomain)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	d := tinyDataset()
	path := filepath.Join(t.TempDir(), "tiny.json")
	if err := SaveJSON(d, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != d.Name || got.NumDomains() != 2 || got.Domains[0].Train[0].User != 0 {
		t.Fatal("round trip lost data")
	}
	if got.Domains[1].CTRRatio != 0.4 {
		t.Fatal("round trip lost CTR ratio")
	}
}

// TestSHA256IsTheFileDigest: SHA256 of a dataset is the digest of the
// file SaveJSON writes for it, and FileSHA256 reads the same digest back.
func TestSHA256IsTheFileDigest(t *testing.T) {
	d := tinyDataset()
	path := filepath.Join(t.TempDir(), "tiny.json")
	if err := SaveJSON(d, path); err != nil {
		t.Fatal(err)
	}
	want, err := SHA256(d)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := FileSHA256(path); err != nil || got != want || len(got) != 64 {
		t.Fatalf("FileSHA256 = %q, %v; SHA256 = %q", got, err, want)
	}
	d.Domains[0].Train[0].Label = 1 - d.Domains[0].Train[0].Label
	if other, _ := SHA256(d); other == want {
		t.Fatal("a changed label kept the dataset's digest")
	}
}

func TestLoadJSONRejectsInvalid(t *testing.T) {
	d := tinyDataset()
	d.Domains[0].Train[0].User = 99
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := SaveJSON(d, path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadJSON(path); err == nil {
		t.Fatal("LoadJSON accepted an invalid dataset")
	}
}

func TestLoadJSONMissingFile(t *testing.T) {
	if _, err := LoadJSON(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestSchemaFieldsOrder(t *testing.T) {
	s := tinyDataset().Schema
	fields := s.Fields()
	if len(fields) != 3 || fields[0].Name != "user_id" || fields[2].Name != "item_id" {
		t.Fatalf("schema fields = %v", fields)
	}
	if s.NumFields() != 3 {
		t.Fatal("NumFields wrong")
	}
}

func TestHasFixedFeatures(t *testing.T) {
	d := tinyDataset()
	if d.HasFixedFeatures() {
		t.Fatal("tiny dataset should not report fixed features")
	}
	d.FixedUserVecs = [][]float64{{1}, {2}, {3}}
	d.FixedItemVecs = [][]float64{{1}, {2}}
	if !d.HasFixedFeatures() {
		t.Fatal("fixed features not detected")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	d.FixedItemVecs = d.FixedItemVecs[:1]
	if err := d.Validate(); err == nil {
		t.Fatal("expected validation error for short fixed features")
	}
}

func TestValidateCatchesUnbuildableSchema(t *testing.T) {
	d := tinyDataset()
	d.Schema.ItemFields[0].Vocab = -1
	d.ItemFeatures, d.NumItems, d.Domains = nil, 0, nil
	if err := d.Validate(); err == nil {
		t.Fatal("negative vocab not caught")
	}
	d = tinyDataset()
	d.Schema = Schema{}
	d.UserFeatures, d.ItemFeatures = [][]int{{}, {}, {}}, [][]int{{}, {}}
	if err := d.Validate(); err == nil {
		t.Fatal("a learned-mode dataset with no field to embed not caught")
	}
}
