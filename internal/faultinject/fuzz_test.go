package faultinject

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary text to Parse, the -ps-faults / -serve-faults
// grammar a command line hands over unchecked. It must never panic, and
// a schedule it accepts must parse again from Injector.Schedule() into
// an injector that takes the same decisions: the same Fault for the
// same calls, and so the same String() — the summary that carries the
// seed, the schedule and every injection tallied — afterwards. The seeds
// run under plain `go test`.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"",
		"PushDelta:err@5,12; PullRows:delay=20ms@*; conn:drop@30; PullDense:err@p0.05",
		"conn:partition=3@2; Predict:err@1",
		" ; ;PullRows : drop @ 1 , 2 ;",
		"PushDelta:err",           // no occurrences
		":err@1",                  // no operation
		"PushDelta:explode@1",     // unknown fault
		"PullRows:partition=2@1",  // partition outside conn
		"conn:partition=0@1",      // empty partition
		"PullRows:delay=-5ms@*",   // negative delay
		"PullRows:delay=1e400h@*", // delay out of range
		"PushDelta:err@0",         // call indices are 1-based
		"PushDelta:err@1,,2",      // empty index
		"PushDelta:err@pNaN",      // probabilities that are no number
		"PushDelta:err@p+Inf",     //
		"PushDelta:err@p1e-400",   // underflows to zero
		"PushDelta:err@99999999999999999999",
		"a:err@1;a:err@1;a:delay=1ns@*;a:drop@p1",
		"PushDelta:err@" + strings.Repeat("7,", 1<<10) + "7",
	} {
		f.Add(s, int64(7))
	}
	f.Fuzz(func(t *testing.T, schedule string, seed int64) {
		in, err := Parse(schedule, seed)
		if err != nil {
			return
		}
		again, err := Parse(in.Schedule(), in.Seed())
		if err != nil {
			t.Fatalf("schedule %q parsed once and not twice: %v", schedule, err)
		}
		ops := []string{"conn", "PushDelta"}
		for _, raw := range strings.Split(schedule, ";") {
			op, _, _ := strings.Cut(raw, ":")
			ops = append(ops, strings.TrimSpace(op))
		}
		for call := 0; call < 4*len(ops) && call < 256; call++ {
			op := ops[call%len(ops)]
			a, b := in.Eval(op), again.Eval(op)
			if a.Delay != b.Delay || a.DropConn != b.DropConn || fmt.Sprint(a.Err) != fmt.Sprint(b.Err) {
				t.Fatalf("schedule %q, call %d (%s): %+v from the first parse, %+v from the second", schedule, call, op, a, b)
			}
		}
		if in.String() != again.String() {
			t.Fatalf("after the same calls the two parses report\n%s\n%s", in, again)
		}
	})
}
