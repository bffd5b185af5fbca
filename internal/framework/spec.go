package framework

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
)

// Spec is what a run trains on and how: the dataset (the JSON file at
// DataPath, or Preset generated at Samples and Seed) and its digest, the
// model (the models.New key Model at EmbDim and Seed) and the fit's
// hyperparameters. Every checkpoint records it and every resume checks
// it. The zero Spec records nothing.
type Spec struct {
	Preset   string
	Samples  int
	DataPath string
	Seed     int64
	Model    string
	EmbDim   int
	// DataSHA256 is the hex SHA-256 of the dataset's JSON file (or of a
	// preset's data.SaveJSON encoding): mamdr.SpecDataset sets and checks it.
	DataSHA256 string
	Fit
}

// Fit is the hyperparameters a fit ran with (Config.RunSpec): the
// framework key, α, β, γ, k, the batch size, the inner and outer
// optimizers and the epoch cap, the one a resume may change.
type Fit struct {
	Framework          string
	LR, OuterLR, DRLR  float64
	SampleK, BatchSize int
	InnerOpt, OuterOpt string
	Epochs             int
}

// RunSpec is c.Spec with the hyperparameters c fits with, defaults
// filled in, under the framework key fw; a Config with no Spec has none.
func (c Config) RunSpec(fw string) Spec {
	if c.Spec == (Spec{}) {
		return Spec{}
	}
	c = c.WithDefaults()
	s := c.Spec
	s.Fit = Fit{Framework: fw, LR: c.LR, OuterLR: c.OuterLR, DRLR: c.DRLR, SampleK: c.SampleK,
		BatchSize: c.BatchSize, InnerOpt: c.InnerOpt, OuterOpt: c.OuterOpt, Epochs: c.Epochs}
	return s
}

// CheckResume is the one check a resume makes: the run's spec must equal
// the checkpoint's but for the epoch cap. The error names every field
// that differs; a checkpoint that recorded no spec resumes only a run
// that sets none.
func CheckResume(run, saved Spec) error {
	run.Epochs = saved.Epochs
	if run != saved && saved == (Spec{}) {
		return errors.New("the checkpoint records no run spec (written before checkpoints recorded one): retrain it")
	}
	return differ("the checkpoint was trained on another spec", run, saved)
}

// CheckData is CheckResume's dataset-and-model half, what serving needs.
func CheckData(run, saved Spec) error {
	run.Fit, saved.Fit = Fit{}, Fit{}
	return differ("the checkpoint was trained on another dataset or model", run, saved)
}

// differ is nil when run equals saved, else what and, for every field
// that differs, "Name run (checkpoint saved)".
func differ(what string, run, saved Spec) error {
	var diffs []string
	r, s := reflect.ValueOf(run), reflect.ValueOf(saved)
	for _, f := range reflect.VisibleFields(r.Type()) {
		if a, b := r.FieldByIndex(f.Index), s.FieldByIndex(f.Index); !f.Anonymous && !a.Equal(b) {
			diffs = append(diffs, fmt.Sprintf("%s %#v (checkpoint %#v)", f.Name, a, b))
		}
	}
	if diffs == nil {
		return nil
	}
	return fmt.Errorf("%s: %s", what, strings.Join(diffs, ", "))
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
