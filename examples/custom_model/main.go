// This example demonstrates MAMDR's model agnosticism — the property the
// paper's title claims. We define a brand-new model structure the
// repository has never seen (a tiny factorization-style two-tower model)
// and hand it to the MAMDR framework unchanged: the framework only uses
// Forward and Parameters, so anything satisfying the Model interface
// trains with DN+DR.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"mamdr" // its facade registers the dn/dr/mamdr frameworks
	"mamdr/internal/autograd"
	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/nn"
	"mamdr/internal/synth"
)

// TwoTower is a user-tower / item-tower dot-product model: each side
// embeds its id and projects it through a small dense layer; the logit
// is the inner product of the two tower outputs plus a bias.
type TwoTower struct {
	userEmb, itemEmb   *nn.Embedding
	userProj, itemProj *nn.Dense
	bias               *autograd.Tensor
}

// NewTwoTower builds the model for the dataset's user/item vocabularies.
func NewTwoTower(numUsers, numItems, dim int, seed int64) *TwoTower {
	rng := rand.New(rand.NewSource(seed))
	return &TwoTower{
		userEmb:  nn.NewEmbedding(numUsers, dim, 0.05, rng),
		itemEmb:  nn.NewEmbedding(numItems, dim, 0.05, rng),
		userProj: nn.NewDense(dim, dim, nn.Tanh, rng),
		itemProj: nn.NewDense(dim, dim, nn.Tanh, rng),
		bias:     autograd.ParamZeros(1, 1),
	}
}

// Forward implements models.Model.
func (m *TwoTower) Forward(b *data.Batch, training bool) *autograd.Tensor {
	u := m.userProj.Forward(m.userEmb.Lookup(b.Users))
	v := m.itemProj.Forward(m.itemEmb.Lookup(b.Items))
	dot := autograd.RowDot(u, v)
	n := len(b.Labels)
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	return autograd.Add(dot, autograd.MatMul(autograd.New(n, 1, ones), m.bias))
}

// Parameters implements models.Model.
func (m *TwoTower) Parameters() []*autograd.Tensor {
	ps := m.userEmb.Parameters()
	ps = append(ps, m.itemEmb.Parameters()...)
	ps = append(ps, m.userProj.Parameters()...)
	ps = append(ps, m.itemProj.Parameters()...)
	return append(ps, m.bias)
}

// Name implements models.Model.
func (m *TwoTower) Name() string { return "TwoTower (custom)" }

func main() {
	log.SetFlags(0)
	ds := synth.Generate(synth.Taobao10(6000, 13))
	// The two-tower model reads raw user/item ids, so it works with any
	// feature regime; drop the frozen features to exercise id towers.
	ds.FixedUserVecs, ds.FixedItemVecs = nil, nil

	// A custom structure has no models.New key: mamdr.Train cannot build
	// it, so the framework fits it directly and the run's Spec stays zero.
	cfg := mamdr.Config{Epochs: 10, Seed: 5}

	model := NewTwoTower(ds.NumUsers, ds.NumItems, 8, 5)
	fmt.Printf("custom structure %q: %d parameter tensors\n", model.Name(), len(model.Parameters()))

	alt := framework.MustNew("alternate").Fit(NewTwoTower(ds.NumUsers, ds.NumItems, 8, 5), ds, cfg)
	ours := framework.MustNew("mamdr").Fit(model, ds, cfg)

	fmt.Printf("alternate:  mean test AUC %.4f\n", framework.MeanAUC(alt, ds, data.Test))
	fmt.Printf("MAMDR:      mean test AUC %.4f\n", framework.MeanAUC(ours, ds, data.Test))
	fmt.Println("\nNo framework code changed: MAMDR saw only Forward and Parameters.")
}
