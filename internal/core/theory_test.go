package core

import (
	"math"
	"math/rand"
	"testing"

	"mamdr/internal/autograd"
	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/optim"
	"mamdr/internal/paramvec"
)

// quadModel is an analytically tractable "recommender": on domain d it
// emits the logit −||θ − c_d||² for every sample. With all labels 1 the
// BCE training loss is log(1+exp(||θ − c_d||²)), which is minimized at
// θ = c_d, and one SGD step has the closed form
//
//	θ ← θ − α·k(θ,d)·(θ − c_d),  k = 2·(1 − sigmoid(−||θ − c_d||²)),
//
// letting the tests verify DN/DR updates against hand-computed values.
type quadModel struct {
	theta   *autograd.Tensor
	centers [][]float64
}

func newQuadModel(centers [][]float64) *quadModel {
	return &quadModel{
		theta:   autograd.ParamZeros(1, len(centers[0])),
		centers: centers,
	}
}

// Forward implements models.Model: logit −||θ − c_domain||² per sample.
func (m *quadModel) Forward(b *data.Batch, training bool) *autograd.Tensor {
	c := autograd.New(1, len(m.centers[b.Domain]), m.centers[b.Domain])
	diff := autograd.Sub(m.theta, c)
	loss := autograd.Scale(autograd.Sum(autograd.Square(diff)), -1)
	// Broadcast the scalar loss to one logit per sample.
	n := len(b.Labels)
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	return autograd.MatMul(autograd.New(n, 1, ones), loss)
}

// Parameters implements models.Model.
func (m *quadModel) Parameters() []*autograd.Tensor { return []*autograd.Tensor{m.theta} }

// Name implements models.Model.
func (m *quadModel) Name() string { return "quad" }

// quadDataset builds a trivial dataset with one train sample per domain
// so each TrainDomainPass performs exactly one gradient step.
func quadDataset(domains int) *data.Dataset {
	ds := &data.Dataset{
		Name:     "quad",
		NumUsers: 1,
		NumItems: 1,
		Schema: data.Schema{
			UserFields: []data.Field{{Name: "u", Vocab: 1}},
			ItemFields: []data.Field{{Name: "i", Vocab: 1}},
		},
		UserFeatures: [][]int{{0}},
		ItemFeatures: [][]int{{0}},
	}
	for d := 0; d < domains; d++ {
		ds.Domains = append(ds.Domains, &data.Domain{
			ID:    d,
			Name:  "q",
			Train: []data.Interaction{{User: 0, Item: 0, Label: 1}},
			Val:   []data.Interaction{{User: 0, Item: 0, Label: 1}},
			Test:  []data.Interaction{{User: 0, Item: 0, Label: 1}},
		})
	}
	return ds
}

// dnOrder is the order a DN epoch on rand.NewSource(seed) visits n
// domains in: its first draw seeds the model's dropout masks, its second
// is the shuffle.
func dnOrder(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	rng.Int63()
	return rng.Perm(n)
}

// TestDNOuterUpdateMatchesEq3 verifies that with SGD in both loops the
// outer update is exactly Θ ← Θ + β(Θ̃_{n+1} − Θ), where Θ̃ is the
// sequential inner-loop endpoint (Algorithm 1).
func TestDNOuterUpdateMatchesEq3(t *testing.T) {
	centers := [][]float64{{1, 0}, {0, 1}}
	m := newQuadModel(centers)
	ds := quadDataset(2)
	alpha, beta := 0.1, 0.5
	cfg := framework.Config{
		Epochs: 1, BatchSize: 1, LR: alpha, OuterLR: beta,
		InnerOpt: "sgd", OuterOpt: "sgd",
	}.WithDefaults()
	cfg.LR, cfg.OuterLR = alpha, beta // WithDefaults must not override

	st := &State{Model: m, Shared: paramvec.Snapshot(m.Parameters())}
	st.AddDomain()
	st.AddDomain()

	// Hand-simulate the inner loop for the order the rng will produce.
	rng := rand.New(rand.NewSource(4))
	order := dnOrder(4, 2)
	theta := []float64{0, 0}
	for _, d := range order {
		quadStep(theta, centers[d], alpha)
	}
	want := []float64{beta * theta[0], beta * theta[1]} // from Θ=0

	outer := optim.NewSGD(beta)
	DomainNegotiationEpoch(st, ds, cfg, outer, rng)

	for i, w := range want {
		if math.Abs(st.Shared[0][i]-w) > 1e-9 {
			t.Fatalf("shared[%d] = %g, want %g (Eq. 3)", i, st.Shared[0][i], w)
		}
	}
}

// TestDNConvergesToCompromise verifies DN drives the shared parameters
// to the average of conflicting domain optima (the minimizer of the
// summed quadratic losses), i.e. it converges despite full conflict.
func TestDNConvergesToCompromise(t *testing.T) {
	centers := [][]float64{{2, 0}, {-2, 0}, {0, 2}, {0, -2}}
	m := newQuadModel(centers)
	ds := quadDataset(4)
	cfg := framework.Config{
		Epochs: 1, BatchSize: 1, LR: 0.1, OuterLR: 0.5,
		InnerOpt: "sgd", OuterOpt: "sgd",
	}.WithDefaults()
	cfg.LR, cfg.OuterLR = 0.1, 0.5

	st := &State{Model: m, Shared: paramvec.Snapshot(m.Parameters())}
	for range centers {
		st.AddDomain()
	}
	// Start far from the compromise.
	st.Shared[0][0], st.Shared[0][1] = 5, -7

	rng := rand.New(rand.NewSource(9))
	outer := optim.NewSGD(cfg.OuterLR)
	for e := 0; e < 200; e++ {
		DomainNegotiationEpoch(st, ds, cfg, outer, rng)
	}
	// The summed loss is minimized at the centroid (0, 0); with a
	// constant step size the iterates settle into a small limit cycle
	// around it, so assert the neighborhood rather than the point.
	if math.Abs(st.Shared[0][0]) > 0.25 || math.Abs(st.Shared[0][1]) > 0.25 {
		t.Fatalf("DN did not converge to the compromise point: %v", st.Shared[0])
	}
}

// TestDRPullsSpecificTowardTargetOptimum verifies DR moves a domain's
// specific parameters so that the composed Θ = θ_S + θ_i approaches the
// target domain's own optimum, while the helper step keeps it from
// collapsing onto it (the regularization).
func TestDRPullsSpecificTowardTargetOptimum(t *testing.T) {
	centers := [][]float64{{1, 1}, {-1, 1}}
	m := newQuadModel(centers)
	ds := quadDataset(2)
	cfg := framework.Config{
		Epochs: 1, BatchSize: 1, LR: 0.1, DRLR: 0.5, SampleK: 1,
		InnerOpt: "sgd", OuterOpt: "sgd",
	}.WithDefaults()
	cfg.LR, cfg.DRLR = 0.1, 0.5

	st := &State{Model: m, Shared: paramvec.Snapshot(m.Parameters())}
	st.AddDomain()
	st.AddDomain()

	rng := rand.New(rand.NewSource(5))
	distBefore := dist(st.ComposedFor(0)[0], centers[0])
	for e := 0; e < 50; e++ {
		DomainRegularization(st, ds, 0, cfg, rng)
	}
	distAfter := dist(st.ComposedFor(0)[0], centers[0])
	if distAfter >= distBefore {
		t.Fatalf("DR did not move composed params toward target optimum: %.4f -> %.4f", distBefore, distAfter)
	}
	// DR's fixed point balances the helper and target pulls — that IS
	// the regularization — so the composed parameters settle distinctly
	// closer to the target's optimum than to the helper's.
	if toHelper := dist(st.ComposedFor(0)[0], centers[1]); distAfter >= toHelper {
		t.Fatalf("composed params closer to helper (%.4f) than target (%.4f)", toHelper, distAfter)
	}
	// The shared parameters must be untouched by DR.
	if st.Shared[0][0] != 0 || st.Shared[0][1] != 0 {
		t.Fatalf("DR modified shared parameters: %v", st.Shared[0])
	}
}

// TestDRTargetMatchesClosedForm is Algorithm 2's oracle for one target:
// 3 domains, k = 2 helpers, SGD, non-zero θ_S and θ_i. It rebuilds the
// helper order as the DR worker draws it — re-seed from the target's
// draw, one draw for the dropout masks, then SampleHelpers — and per
// helper j starts from Θ̃ = θ_S + θ_i, takes one step on T_j and one on
// T_i, and moves θ_i += γ·(Θ̃ − (θ_S + θ_i)) (Eq. 8: update_meta_weight
// with merged_weights = θ_S + θ_i). One DomainRegularization call must
// land on that θ_i within 1e-12 and leave θ_S and every other θ_j as
// they were.
func TestDRTargetMatchesClosedForm(t *testing.T) {
	centers := [][]float64{{1, 2}, {-2, 1}, {0.5, -1.5}}
	alpha, gamma, target := 0.1, 0.4, 1
	cfg := framework.Config{
		Epochs: 1, BatchSize: 1, LR: alpha, DRLR: gamma, SampleK: 2,
		InnerOpt: "sgd", OuterOpt: "sgd",
	}.WithDefaults()

	shared := []float64{0.3, -0.2}
	specific := [][]float64{{0.1, 0.4}, {-0.5, 0.2}, {0.25, -0.35}}
	st := &State{Model: newQuadModel(centers), Shared: paramvec.Vector{append([]float64(nil), shared...)}}
	for _, v := range specific {
		st.Specific = append(st.Specific, paramvec.Vector{append([]float64(nil), v...)})
	}

	draws := rand.New(rand.NewSource(rand.New(rand.NewSource(13)).Int63()))
	draws.Int63()
	helpers := SampleHelpers(len(centers), target, cfg.SampleK, draws)
	if len(helpers) != 2 {
		t.Fatalf("helpers %v, want 2", helpers)
	}
	want := append([]float64(nil), specific[target]...)
	for _, j := range helpers {
		theta := []float64{shared[0] + want[0], shared[1] + want[1]}
		quadStep(theta, centers[j], alpha)
		quadStep(theta, centers[target], alpha)
		for i := range want {
			want[i] += gamma * (theta[i] - (shared[i] + want[i]))
		}
	}

	DomainRegularization(st, quadDataset(len(centers)), target, cfg, rand.New(rand.NewSource(13)))
	for i, w := range want {
		if got := st.Specific[target][0][i]; math.Abs(got-w) > 1e-12 {
			t.Fatalf("θ_%d[%d] = %.17g, the closed form gives %.17g (helpers %v)", target, i, got, w, helpers)
		}
	}
	for i, v := range shared {
		if st.Shared[0][i] != v {
			t.Fatalf("DR moved θ_S: %v, want %v", st.Shared[0], shared)
		}
	}
	for d, v := range specific {
		for i := range v {
			if d != target && st.Specific[d][0][i] != v[i] {
				t.Fatalf("DR of target %d moved θ_%d: %v, want %v", target, d, st.Specific[d][0], v)
			}
		}
	}
}

// quadStep applies one SGD step of the quadModel's BCE loss in closed
// form: θ ← θ − α·2·(1 − sigmoid(−L))·(θ − c) with L = ||θ − c||².
func quadStep(theta, c []float64, alpha float64) {
	var l float64
	for i := range theta {
		d := theta[i] - c[i]
		l += d * d
	}
	k := 2 * (1 - 1/(1+math.Exp(l)))
	for i := range theta {
		theta[i] -= alpha * k * (theta[i] - c[i])
	}
}

func dist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// TestDNBetaOneEqualsAlternate verifies the degenerate case discussed in
// Section IV-C: with β=1 and SGD in both loops, one DN epoch leaves the
// parameters exactly at the inner-loop endpoint — i.e. alternate
// training.
func TestDNBetaOneEqualsAlternate(t *testing.T) {
	centers := [][]float64{{1, 2}, {3, -1}, {-2, 0}}
	ds := quadDataset(3)
	cfg := framework.Config{
		Epochs: 1, BatchSize: 1, LR: 0.05, OuterLR: 1,
		InnerOpt: "sgd", OuterOpt: "sgd",
	}.WithDefaults()
	cfg.LR, cfg.OuterLR = 0.05, 1

	// DN with β=1.
	mDN := newQuadModel(centers)
	stDN := &State{Model: mDN, Shared: paramvec.Snapshot(mDN.Parameters())}
	for range centers {
		stDN.AddDomain()
	}
	DomainNegotiationEpoch(stDN, ds, cfg, optim.NewSGD(1), rand.New(rand.NewSource(7)))

	// Alternate training with the same visiting order.
	theta := []float64{0, 0}
	for _, d := range dnOrder(7, 3) {
		quadStep(theta, centers[d], 0.05)
	}

	for i := range theta {
		if math.Abs(stDN.Shared[0][i]-theta[i]) > 1e-12 {
			t.Fatalf("β=1 DN != alternate: %v vs %v", stDN.Shared[0], theta)
		}
	}
}
