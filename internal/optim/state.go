package optim

import (
	"fmt"

	"mamdr/internal/autograd"
)

// State is a serializable snapshot of an optimizer's per-tensor state,
// aligned slot-for-slot with the parameter list it was captured from.
// It is what crash-safe checkpoints persist so a resumed run replays
// the exact update trajectory of an uninterrupted one: Adagrad's
// accumulators, Adam's moments and step counter; SGD's holds only its
// name. All fields are exported for encoding/gob.
type State struct {
	// Name records the optimizer kind ("sgd", "adam", "adagrad") as a
	// guard against restoring into a different optimizer.
	Name string
	// Step is Adam's bias-correction step counter (zero elsewhere).
	Step int
	// Slots maps a slot name ("m", "v", "g2") to one buffer per
	// parameter; a nil buffer means the optimizer never touched that
	// tensor (lazily initialized state stays lazy after restore).
	Slots map[string][][]float64
}

// Empty reports whether the snapshot carries no optimizer kind at all
// (the zero State, e.g. from a checkpoint written without one).
func (s State) Empty() bool { return s.Name == "" }

// Stateful is implemented by optimizers whose accumulated state can be
// captured for checkpointing and restored on resume.
type Stateful interface {
	Optimizer
	// CaptureState snapshots the state tracked for params.
	CaptureState(params []*autograd.Tensor) State
	// RestoreState rebinds a captured snapshot to params. It fails if
	// the snapshot was captured from a different optimizer kind or a
	// misaligned parameter list.
	RestoreState(params []*autograd.Tensor, st State) error
}

// captureSlot copies the per-tensor buffers tracked in m for params,
// preserving nil for untouched tensors.
func captureSlot(m map[*autograd.Tensor][]float64, params []*autograd.Tensor) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		if buf, ok := m[p]; ok {
			out[i] = append([]float64(nil), buf...)
		}
	}
	return out
}

// restoreSlot rebuilds a per-tensor state map from a captured slot.
func restoreSlot(slot [][]float64, params []*autograd.Tensor, name, opt string) (map[*autograd.Tensor][]float64, error) {
	if slot == nil {
		return nil, nil
	}
	if len(slot) != len(params) {
		return nil, fmt.Errorf("optim: %s state slot %q has %d buffers, restoring over %d params", opt, name, len(slot), len(params))
	}
	var m map[*autograd.Tensor][]float64
	for i, buf := range slot {
		if buf == nil {
			continue
		}
		if len(buf) != len(params[i].Data) {
			return nil, fmt.Errorf("optim: %s state slot %q buffer %d has %d values, tensor has %d",
				opt, name, i, len(buf), len(params[i].Data))
		}
		if m == nil {
			m = map[*autograd.Tensor][]float64{}
		}
		m[params[i]] = append([]float64(nil), buf...)
	}
	return m, nil
}

func checkKind(st State, want string) error {
	if st.Name != want {
		return fmt.Errorf("optim: state captured from %q, restoring into %q", st.Name, want)
	}
	return nil
}

// CaptureState implements Stateful: SGD has no state beyond its kind.
func (s *SGD) CaptureState([]*autograd.Tensor) State { return State{Name: "sgd"} }

// RestoreState implements Stateful. Checkpoints written while SGD could
// carry momentum hold a "velocity" slot, of nil buffers for plain SGD;
// those resume, and a buffer with values — a momentum this SGD would drop
// — is refused.
func (s *SGD) RestoreState(_ []*autograd.Tensor, st State) error {
	if err := checkKind(st, "sgd"); err != nil {
		return err
	}
	for i, buf := range st.Slots["velocity"] {
		if len(buf) != 0 {
			return fmt.Errorf("optim: sgd state holds a momentum velocity for param %d; SGD has no momentum", i)
		}
	}
	return nil
}

// CaptureState implements Stateful.
func (a *Adam) CaptureState(params []*autograd.Tensor) State {
	return State{Name: "adam", Step: a.step, Slots: map[string][][]float64{
		"m": captureSlot(a.m, params),
		"v": captureSlot(a.v, params),
	}}
}

// RestoreState implements Stateful.
func (a *Adam) RestoreState(params []*autograd.Tensor, st State) error {
	if err := checkKind(st, "adam"); err != nil {
		return err
	}
	if st.Step < 0 {
		return fmt.Errorf("optim: adam state has step %d", st.Step)
	}
	m, err := restoreSlot(st.Slots["m"], params, "m", "adam")
	if err != nil {
		return err
	}
	v, err := restoreSlot(st.Slots["v"], params, "v", "adam")
	if err != nil {
		return err
	}
	// Step allocates both moments of a tensor or neither; one without the
	// other would reach AdamStep as an empty buffer.
	for i, p := range params {
		if (m[p] == nil) != (v[p] == nil) {
			return fmt.Errorf("optim: adam state holds one of m and v, not both, for param %d (%dx%d)", i, p.Rows, p.Cols)
		}
	}
	a.m, a.v, a.step = m, v, st.Step
	return nil
}

// CaptureState implements Stateful.
func (a *Adagrad) CaptureState(params []*autograd.Tensor) State {
	for _, p := range params {
		if a.rowG2[p] != nil {
			a.accumulator(p) // fold row accumulators into the captured form
		}
	}
	return State{Name: "adagrad", Slots: map[string][][]float64{"g2": captureSlot(a.g2, params)}}
}

// RestoreState implements Stateful.
func (a *Adagrad) RestoreState(params []*autograd.Tensor, st State) error {
	if err := checkKind(st, "adagrad"); err != nil {
		return err
	}
	g2, err := restoreSlot(st.Slots["g2"], params, "g2", "adagrad")
	if err != nil {
		return err
	}
	a.g2, a.rowG2 = g2, nil
	return nil
}
