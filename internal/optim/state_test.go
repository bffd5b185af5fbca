package optim

import (
	"strings"
	"testing"

	"mamdr/internal/autograd"
)

func statefulParams() []*autograd.Tensor {
	a := autograd.Param(2, 2, []float64{1, 2, 3, 4})
	b := autograd.Param(1, 3, []float64{-1, 0, 1})
	return []*autograd.Tensor{a, b}
}

func fillGrads(params []*autograd.Tensor, v float64) {
	for _, p := range params {
		for i := range p.Grad {
			p.Grad[i] = v
		}
	}
}

// TestStateRoundTripContinuesIdentically: an optimizer restored from
// captured state must continue the trajectory bit-for-bit — the property
// the checkpoint/resume path needs for Adagrad accumulators, Adam
// moments, and SGD's name.
func TestStateRoundTripContinuesIdentically(t *testing.T) {
	builders := map[string]func() Optimizer{
		"sgd":     func() Optimizer { return NewSGD(0.1) },
		"adam":    func() Optimizer { return NewAdam(0.01) },
		"adagrad": func() Optimizer { return NewAdagrad(0.1) },
	}
	for name, mk := range builders {
		t.Run(name, func(t *testing.T) {
			ref := statefulParams()
			opt := mk()
			for step := 0; step < 3; step++ {
				fillGrads(ref, 0.5)
				opt.Step(ref)
			}
			st := opt.(Stateful).CaptureState(ref)
			if st.Empty() {
				t.Fatal("captured state is empty")
			}

			// A fresh optimizer over parameters at the same values,
			// restored from the checkpointed state...
			cont := statefulParams()
			for i, p := range ref {
				copy(cont[i].Data, p.Data)
			}
			opt2 := mk()
			if err := opt2.(Stateful).RestoreState(cont, st); err != nil {
				t.Fatal(err)
			}

			// ...must take exactly the steps the original takes.
			for step := 0; step < 3; step++ {
				fillGrads(ref, 0.25)
				fillGrads(cont, 0.25)
				opt.Step(ref)
				opt2.Step(cont)
			}
			for i := range ref {
				for j := range ref[i].Data {
					if ref[i].Data[j] != cont[i].Data[j] {
						t.Fatalf("param %d[%d] diverged after restore: %g vs %g",
							i, j, cont[i].Data[j], ref[i].Data[j])
					}
				}
			}
		})
	}
}

func TestRestoreStateRejectsMismatches(t *testing.T) {
	params := statefulParams()
	opt := NewAdagrad(0.1)
	fillGrads(params, 0.5)
	opt.Step(params)
	st := opt.CaptureState(params)

	// Wrong optimizer kind.
	if err := NewAdam(0.1).RestoreState(params, st); err == nil {
		t.Fatal("adam restored adagrad state")
	}
	// Wrong tensor count.
	if err := NewAdagrad(0.1).RestoreState(params[:1], st); err == nil {
		t.Fatal("restore accepted a mismatched parameter list")
	}
	// Wrong tensor size.
	resized := []*autograd.Tensor{autograd.ParamZeros(5, 5), autograd.ParamZeros(1, 3)}
	if err := NewAdagrad(0.1).RestoreState(resized, st); err == nil {
		t.Fatal("restore accepted mismatched tensor sizes")
	}
}

// TestAdamRestoreRejectsUnpairedMoments: Step allocates a tensor's m and
// v together, so a state holding one without the other — or a negative
// step counter — is corrupt. Restoring it must fail, naming the tensor,
// instead of succeeding and panicking in the next Step.
func TestAdamRestoreRejectsUnpairedMoments(t *testing.T) {
	params := statefulParams()
	opt := NewAdam(0.01)
	fillGrads(params, 0.5)
	opt.Step(params)
	good := opt.CaptureState(params)

	corrupt := func(edit func(st *State)) State {
		st := State{Name: good.Name, Step: good.Step, Slots: map[string][][]float64{}}
		for k, bufs := range good.Slots {
			st.Slots[k] = append([][]float64(nil), bufs...)
		}
		edit(&st)
		return st
	}
	for name, st := range map[string]State{
		"m without v":      corrupt(func(st *State) { st.Slots["v"][1] = nil }),
		"v without m":      corrupt(func(st *State) { st.Slots["m"][1] = nil }),
		"no v slot at all": corrupt(func(st *State) { delete(st.Slots, "v") }),
	} {
		err := NewAdam(0.01).RestoreState(params, st)
		if err == nil {
			t.Fatalf("%s: restored", name)
		}
		if want := "param "; !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %q does not name the tensor", name, err)
		}
	}
	if err := NewAdam(0.01).RestoreState(params, corrupt(func(st *State) { st.Step = -1 })); err == nil {
		t.Fatal("negative step restored")
	}
	if err := NewAdam(0.01).RestoreState(params, good); err != nil {
		t.Fatalf("the uncorrupted state: %v", err)
	}
}

func TestCaptureStatePreservesUntouchedSlots(t *testing.T) {
	// An optimizer that has never stepped captures an empty-but-typed
	// state; restoring it must be a no-op, not an error.
	params := statefulParams()
	st := NewAdagrad(0.1).CaptureState(params)
	if st.Name != "adagrad" {
		t.Fatalf("state name = %q", st.Name)
	}
	if err := NewAdagrad(0.1).RestoreState(params, st); err != nil {
		t.Fatalf("restoring a pre-step state: %v", err)
	}
}

// TestSGDRestoresNilVelocitySlot: checkpoints written while SGD could
// carry momentum save plain SGD as a "velocity" slot of nil buffers.
// Those resume; a velocity with values is a momentum SGD no longer has,
// and restoring it fails, naming the tensor.
func TestSGDRestoresNilVelocitySlot(t *testing.T) {
	params := statefulParams()
	old := State{Name: "sgd", Slots: map[string][][]float64{"velocity": {nil, nil}}}
	if err := NewSGD(0.1).RestoreState(params, old); err != nil {
		t.Fatalf("a momentum-free sgd state: %v", err)
	}
	moving := State{Name: "sgd", Slots: map[string][][]float64{"velocity": {nil, {0.5, 0, 0}}}}
	err := NewSGD(0.1).RestoreState(params, moving)
	if err == nil {
		t.Fatal("an sgd state with a non-zero velocity restored")
	}
	if !strings.Contains(err.Error(), "param 1") {
		t.Fatalf("error %q does not name the tensor", err)
	}
}
