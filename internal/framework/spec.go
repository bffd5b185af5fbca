package framework

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
)

// Spec is what a run trains on: the dataset (the JSON file at DataPath,
// or Preset generated at Samples and Seed) and the model (the models.New
// key Model at EmbDim and Seed). Every checkpoint records it and every
// resume checks it; the framework key and hyperparameters are not part
// of it. The zero Spec records nothing.
type Spec struct {
	Preset   string
	Samples  int
	DataPath string
	Seed     int64
	Model    string
	EmbDim   int
}

// CheckResume is the one check a resume makes: the run's spec must equal
// the checkpoint's. The error names every field that differs; a
// checkpoint that recorded no spec resumes only a run that sets none.
func CheckResume(run, saved Spec) error {
	if run == saved {
		return nil
	}
	if saved == (Spec{}) {
		return errors.New("the checkpoint records no run spec (written before checkpoints recorded one): retrain it")
	}
	var diffs []string
	r, s := reflect.ValueOf(run), reflect.ValueOf(saved)
	for i := range r.NumField() {
		if a, b := r.Field(i).Interface(), s.Field(i).Interface(); a != b {
			diffs = append(diffs, fmt.Sprintf("%s %#v (checkpoint %#v)", r.Type().Field(i).Name, a, b))
		}
	}
	return fmt.Errorf("the checkpoint was trained on another spec: %s", strings.Join(diffs, ", "))
}

// ResumeError is the panic value of a fit that cannot resume from its
// checkpoint. Fit returns no error, so CatchResume turns this panic, and
// only this one, back into an error.
type ResumeError struct{ Err error }

func (e *ResumeError) Error() string { return e.Err.Error() }

func (e *ResumeError) Unwrap() error { return e.Err }

// CatchResume runs fit and returns the *ResumeError it panics with; any
// other panic goes on.
func CatchResume(fit func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			re, ok := r.(*ResumeError)
			if !ok {
				panic(r)
			}
			err = re
		}
	}()
	fit()
	return nil
}
