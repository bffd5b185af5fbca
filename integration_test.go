package mamdr

// End-to-end integration tests across modules: data generation ->
// serialization -> training (multiple models x frameworks) -> per-domain
// serving -> runtime domain registration -> distributed parity.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"mamdr/internal/core"
	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/metrics"
	"mamdr/internal/models"
	"mamdr/internal/ps"
	"mamdr/internal/serve"
	"mamdr/internal/synth"
)

func TestPipelineGenerateSaveLoadTrainServe(t *testing.T) {
	// 1. Generate and persist.
	ds := specDataset(t, Spec{Preset: "amazon-6", Samples: 3000, Seed: 11})
	path := filepath.Join(t.TempDir(), "amazon6.json")
	if err := SaveDataset(ds, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}

	// 2. Train on the loaded copy.
	res, err := Train(loaded, "mamdr", Config{Spec: Spec{Model: "deepfm", Seed: 5}, Epochs: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}

	// 3. Serve every domain; scores must be valid probabilities and not
	// all identical (the model must discriminate).
	for d := range loaded.Domains {
		b := loaded.FullBatch(d, data.Test)
		probs := res.Predictor.Predict(b)
		var minP, maxP = 1.0, 0.0
		for _, p := range probs {
			if p < 0 || p > 1 || math.IsNaN(p) {
				t.Fatalf("domain %d: invalid probability %g", d, p)
			}
			minP = math.Min(minP, p)
			maxP = math.Max(maxP, p)
		}
		if maxP-minP < 1e-6 {
			t.Fatalf("domain %d: constant predictions", d)
		}
	}

	// 4. Register a new domain at runtime (the MDR platform property).
	st, ok := res.Predictor.(*core.State)
	if !ok {
		t.Fatalf("mamdr predictor is %T, want *core.State", res.Predictor)
	}
	newID := st.AddDomain()
	if newID != loaded.NumDomains() {
		t.Fatalf("new domain id = %d, want %d", newID, loaded.NumDomains())
	}
	// The fresh domain serves with pure shared parameters.
	b := loaded.FullBatch(0, data.Test)
	bNew := *b
	bNew.Domain = newID
	probs := st.Predict(&bNew)
	if len(probs) != b.Size() {
		t.Fatal("new domain cannot serve")
	}
}

// TestEveryModelTrainsUnderMAMDR crosses all 11 model structures with
// the MAMDR framework on a small dataset — the model-agnosticism claim
// as a test.
func TestEveryModelTrainsUnderMAMDR(t *testing.T) {
	ds := specDataset(t, Spec{Preset: "taobao-10", Samples: 1500, Seed: 11})
	for _, name := range ModelNames() {
		res, err := Train(ds, "mamdr", Config{Spec: Spec{Model: name, Seed: 5}, Epochs: 1, Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.IsNaN(res.MeanTestAUC) {
			t.Fatalf("%s: NaN AUC", name)
		}
	}
}

// TestEveryFrameworkTrainsEveryRegime crosses all frameworks with both
// feature regimes (learned Amazon embeddings, frozen Taobao features).
func TestEveryFrameworkTrainsEveryRegime(t *testing.T) {
	for _, preset := range []string{"amazon-6", "taobao-10"} {
		ds := specDataset(t, Spec{Preset: preset, Samples: 1200, Seed: 11})
		for _, fw := range FrameworkNames() {
			res, err := Train(ds, fw, Config{Spec: Spec{Model: "mlp", Seed: 5}, Epochs: 1, Seed: 5})
			if err != nil {
				t.Fatalf("%s/%s: %v", preset, fw, err)
			}
			if math.IsNaN(res.MeanTestAUC) {
				t.Fatalf("%s/%s: NaN AUC", preset, fw)
			}
		}
	}
}

// TestDistributedMatchesLocalQuality verifies single-worker PS training
// reaches quality comparable to the in-process DN trainer on the same
// data (the distributed implementation is the same algorithm behind a
// store interface).
func TestDistributedMatchesLocalQuality(t *testing.T) {
	cfg := synth.Taobao10(4000, 11)
	cfg.FixedFeatures = false // exercise the embedding sync path
	ds := synth.Generate(cfg)

	local := models.MustNew("mlp", models.Config{Dataset: ds, EmbDim: 4, Hidden: []int{16, 8}, Seed: 5})
	localPred := framework.MustNew("dn").Fit(local, ds, framework.Config{
		Epochs: 10, Seed: 9, InnerOpt: "sgd", LR: 0.1, OuterLR: 0.5, OuterOpt: "sgd",
	})
	localAUC := framework.MeanAUC(localPred, ds, data.Test)

	res := ps.Train(func() models.Model {
		return models.MustNew("mlp", models.Config{Dataset: ds, EmbDim: 4, Hidden: []int{16, 8}, Seed: 5})
	}, ds, ps.Options{Workers: 1, Epochs: 10, Seed: 9, CacheEnabled: true})
	distAUC := framework.MeanAUC(res.State, ds, data.Test)

	t.Logf("local DN AUC = %.4f, distributed DN AUC = %.4f", localAUC, distAUC)
	if math.Abs(localAUC-distAUC) > 0.08 {
		t.Fatalf("distributed quality diverges from local: %.4f vs %.4f", distAUC, localAUC)
	}
	if distAUC < 0.53 {
		t.Fatalf("distributed training too weak: %.4f", distAUC)
	}
}

// TestDistributedFitServesFromItsCheckpoint: the file a PS-Worker MAMDR
// fit saves is the state it trained — θ_S and every DR-trained θ_i —
// and a server that loads it answers /predict float for float as the
// fit's own state predicts.
func TestDistributedFitServesFromItsCheckpoint(t *testing.T) {
	cfg := synth.Taobao10(2000, 11)
	cfg.FixedFeatures = false // learned embeddings: row traffic and sparse θ_i rows
	ds := synth.Generate(cfg)
	replica := func() models.Model {
		return models.MustNew("mlp", models.Config{Dataset: ds, EmbDim: 4, Hidden: []int{16, 8}, Seed: 5})
	}
	res := ps.Train(replica, ds, ps.Options{Workers: 2, Epochs: 2, Seed: 9, CacheEnabled: true, SyncPush: true, UseDR: true})

	nonZero := 0
	for _, v := range res.State.Specific {
		for _, seg := range v {
			for _, x := range seg {
				if x != 0 {
					nonZero++
				}
			}
		}
	}
	if nonZero == 0 {
		t.Fatal("every θ_i is zero after a DR fit: the test would not tell θ_S from Θ")
	}

	path := filepath.Join(t.TempDir(), "ps.ckpt")
	if err := res.State.SaveWithBaseline(path, framework.QualityBaseline(res.State, ds, data.Val)); err != nil {
		t.Fatal(err)
	}
	loaded := &core.State{Model: replica()}
	if err := loaded.Load(path); err != nil {
		t.Fatal(err)
	}
	h := serve.NewWithOptions(loaded, ds, serve.Options{}).Handler()
	for d := range ds.Domains {
		b := ds.FullBatch(d, data.Test)
		want := res.State.Predict(b)
		body, err := json.Marshal(serve.PredictRequest{Domain: d, Users: b.Users, Items: b.Items})
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("domain %d: /predict = %d: %s", d, w.Code, w.Body)
		}
		var resp serve.PredictResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Probabilities) != len(want) {
			t.Fatalf("domain %d: %d probabilities for %d pairs", d, len(resp.Probabilities), len(want))
		}
		for i, p := range resp.Probabilities {
			if p != want[i] {
				t.Fatalf("domain %d pair %d: served %v, the fit predicts %v", d, i, p, want[i])
			}
		}
	}
	t.Logf("%d non-zero θ_i entries; served predictions match the fit float for float", nonZero)
}

// TestServeBootsFromCheckpointAlone: the file a fit saves with its spec
// is all serving needs. Booting the way mamdr-serve does — read the
// file once, rebuild the dataset and the model from its Spec, install
// the same vectors — answers /predict float for float as the training
// process's own state predicts, for a user that a smaller taobao-10
// dataset does not have too: taobao's fixed feature vectors depend on
// the sample count, so serving over any other dataset would answer
// with other scores (or "unknown user") while every shape still fits.
func TestServeBootsFromCheckpointAlone(t *testing.T) {
	spec := framework.Spec{Preset: "taobao-10", Samples: 3000, Seed: 11, Model: "mlp", EmbDim: 8}
	ds, err := SpecDataset(&spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(ds, "mamdr", Config{Spec: spec, Epochs: 2, Seed: spec.Seed})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Predictor.(*core.State)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := st.SaveWithBaseline(path, framework.QualityBaseline(st, ds, data.Val)); err != nil {
		t.Fatal(err)
	}

	ck, _, err := core.ReadState(path)
	if err != nil {
		t.Fatal(err)
	}
	served, err := SpecDataset(&ck.Spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := SpecModel(served, ck.Spec)
	if err != nil {
		t.Fatal(err)
	}
	loaded := &core.State{Model: m}
	if err := loaded.Install(ck, ck.Spec, nil); err != nil {
		t.Fatal(err)
	}
	h := serve.NewWithOptions(loaded, served, serve.Options{}).Handler()

	smaller := specDataset(t, Spec{Preset: "taobao-10", Samples: 2000, Seed: spec.Seed})
	if smaller.NumUsers >= ds.NumUsers {
		t.Fatalf("the smaller dataset has %d users, the trained one %d", smaller.NumUsers, ds.NumUsers)
	}
	for d, dom := range ds.Domains {
		ins := append(append([]data.Interaction(nil), dom.Test...), data.Interaction{User: smaller.NumUsers, Item: 3})
		want := st.Predict(ds.MakeBatch(d, ins))
		req := serve.PredictRequest{Domain: d}
		for _, in := range ins {
			req.Users, req.Items = append(req.Users, in.User), append(req.Items, in.Item)
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("domain %d: /predict = %d: %s", d, w.Code, w.Body)
		}
		var resp serve.PredictResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Probabilities) != len(want) {
			t.Fatalf("domain %d: %d probabilities for %d pairs", d, len(resp.Probabilities), len(want))
		}
		for i, p := range resp.Probabilities {
			if p != want[i] {
				t.Fatalf("domain %d pair %d (user %d): served %v, the trainer predicts %v", d, i, ins[i].User, p, want[i])
			}
		}
	}
}

// TestServeBootRefusesARewrittenDataFile: a -data checkpoint names its
// dataset by path and by content. Once the file at DataPath holds
// another dataset of the same shape (another seed), the checkpoint
// still installs into a model built over it, so only the digest tells;
// booting the way mamdr-serve does then fails in SpecDataset with an
// error naming DataSHA256 and both digests. With the file restored, the
// boot goes through.
func TestServeBootRefusesARewrittenDataFile(t *testing.T) {
	dir := t.TempDir()
	path, ckpt := filepath.Join(dir, "ds.json"), filepath.Join(dir, "model.ckpt")
	write := func(seed int64) {
		if err := SaveDataset(specDataset(t, Spec{Preset: "amazon-6", Samples: 1500, Seed: seed}), path); err != nil {
			t.Fatal(err)
		}
	}
	write(1)
	spec := Spec{DataPath: path, Seed: 1, Model: "mlp", EmbDim: 4}
	ds, err := SpecDataset(&spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(ds, "dn", Config{Spec: spec, Epochs: 1, Seed: spec.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Predictor.(*core.State).Save(ckpt); err != nil {
		t.Fatal(err)
	}

	write(2)
	ck, _, err := core.ReadState(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	rewritten, err := LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := SpecModel(rewritten, ck.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := (&core.State{Model: m}).Install(ck, ck.Spec, nil); err != nil {
		t.Fatalf("the checkpoint does not fit a model over the rewritten file (%v): the test would not show the digest's worth", err)
	}
	now, err := data.FileSHA256(path)
	if err != nil {
		t.Fatal(err)
	}
	booted := ck.Spec
	if _, err := SpecDataset(&booted); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("DataSHA256 %q (checkpoint %q)", now, spec.DataSHA256)) {
		t.Fatalf("boot over the rewritten file: %v, want a refusal naming DataSHA256 %s (checkpoint %s)", err, now, spec.DataSHA256)
	}

	write(1)
	booted = ck.Spec
	if _, err := SpecDataset(&booted); err != nil || booted != ck.Spec {
		t.Fatalf("boot over the restored file: spec %+v, %v", booted, err)
	}
}

// TestRankMetricAcrossRealRun sanity-checks the Table V RANK aggregation
// on genuine training output: ranks must average to (m+1)/2 across
// methods.
func TestRankMetricAcrossRealRun(t *testing.T) {
	ds := specDataset(t, Spec{Preset: "taobao-10", Samples: 1500, Seed: 11})
	perMethod := map[string][]float64{}
	for _, fw := range []string{"alternate", "finetune", "mamdr"} {
		res, err := Train(ds, fw, Config{Spec: Spec{Model: "mlp", Seed: 5}, Epochs: 2, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		perMethod[fw] = res.TestAUC
	}
	ranks := metrics.RankAmong(perMethod)
	var sum float64
	for _, r := range ranks {
		if r < 1 || r > 3 {
			t.Fatalf("rank %g out of [1,3]", r)
		}
		sum += r
	}
	if math.Abs(sum-6) > 1e-9 { // 1+2+3
		t.Fatalf("ranks sum to %g, want 6", sum)
	}
}
