// Package faultinject is a seeded, schedule-driven fault injector for
// the PS-Worker stack: it decides, per logical operation, whether a
// call should fail, stall, or lose its connection — deterministically,
// so a failing chaos run replays exactly under the same seed and
// schedule.
//
// A schedule is a semicolon-separated list of rules:
//
//	PushDelta:err@5,12; PullRows:delay=20ms@*; conn:drop@30; PullDense:err@p0.05
//
// Each rule names an operation (an RPC method such as PushDelta, or the
// pseudo-operation "conn" for connection-level faults), a fault kind,
// and an occurrence spec:
//
//	kinds:        err            — the call returns an *InjectedError
//	              delay=<dur>    — the call is preceded by a sleep
//	              drop           — the connection is closed before the call
//	              partition=<n>  — this and the next n-1 calls fail at the
//	                               connection level (conn rules only)
//	occurrences:  @5,12          — the 5th and 12th call of that operation
//	              @*             — every call
//	              @p0.05         — each call independently with p=0.05,
//	                               drawn from the injector's seeded RNG
//
// Faults surface to the caller as a Fault value; the transport (the
// ps RPC client) applies it. Non-transport callers use Fault.Apply. The serving fleet evaluates
// the same grammar under its own operation names: "Predict" (a slow or
// failing model replica), "PublishSource" (reading a snapshot for
// /admin/publish), and "UpstreamPing"/"UpstreamSnapshot" (the serve→PS
// circuit-breaker path).
// Every injected fault is tallied per (op, kind), optionally mirrored
// into a telemetry registry, so flight-recorder dumps and dashboards
// can tell injected failures from organic ones.
//
// Determinism: one injector evaluated from a single goroutine replays
// identically under a fixed seed. An injector shared across goroutines
// is safe (counters and RNG are lock-guarded) but the interleaving of
// callers decides which caller observes which occurrence — for
// deterministic multi-worker chaos, give each worker its own injector
// (e.g. seeded seed+workerID).
package faultinject

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mamdr/internal/telemetry"
)

// Kind classifies an injected fault.
type Kind string

// The supported fault kinds.
const (
	KindErr       Kind = "err"
	KindDelay     Kind = "delay"
	KindDrop      Kind = "drop"
	KindPartition Kind = "partition"
)

// InjectedError is the error returned by calls the injector fails. It
// is distinguishable from organic transport errors (errors.As), so the
// retry layer treats it as transient and telemetry can attribute it.
type InjectedError struct {
	Op   string
	Kind Kind
	// Call is the 1-based per-op call index the fault fired on.
	Call int64
}

// Error implements error.
func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: injected %s on %s (call %d)", e.Kind, e.Op, e.Call)
}

// Fault is the injector's verdict for one call. The zero Fault means
// "proceed untouched". Delay applies first, then DropConn, then Err
// (an Err fault means the call must not be performed at all).
type Fault struct {
	Err      error
	Delay    time.Duration
	DropConn bool
}

// Apply enforces the verdict in order for callers that are not a
// transport: sleep the Delay (abandoned early with ctx.Err() if the
// context dies first), then return the Err, treating DropConn as an
// error too — a caller with no connection to drop still must not
// proceed. A nil ctx means no cancellation. This is how non-RPC code
// paths (the serving pool, publish sources, upstream probes) consume
// the same schedule grammar the PS transport does.
func (f Fault) Apply(ctx context.Context) error {
	if f.Delay > 0 {
		if ctx == nil {
			time.Sleep(f.Delay)
		} else {
			t := time.NewTimer(f.Delay)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
			}
		}
	}
	if f.Err != nil {
		return f.Err
	}
	if f.DropConn {
		return &InjectedError{Op: "conn", Kind: KindDrop}
	}
	return nil
}

// rule is one parsed schedule entry.
type rule struct {
	op    string
	kind  Kind
	delay time.Duration
	partN int64
	every bool
	prob  float64
	at    map[int64]bool
}

func (r rule) matches(call int64, rng *rand.Rand) bool {
	switch {
	case r.every:
		return true
	case r.prob > 0:
		return rng.Float64() < r.prob
	default:
		return r.at[call]
	}
}

// Injector evaluates a parsed schedule. All methods are safe for
// concurrent use; see the package comment for what concurrency does to
// determinism.
type Injector struct {
	schedule string
	seed     int64

	mu            sync.Mutex
	rng           *rand.Rand
	rules         map[string][]rule
	calls         map[string]int64
	partitionLeft int64
	counts        map[string]int64

	reg      *telemetry.Registry
	counters map[string]*telemetry.Counter
}

// Parse compiles a schedule (see the package comment for the grammar)
// into an injector whose probabilistic decisions are driven by seed.
// An empty schedule yields a valid injector that never injects.
func Parse(schedule string, seed int64) (*Injector, error) {
	in := &Injector{
		schedule: schedule,
		seed:     seed,
		rng:      rand.New(rand.NewSource(seed)),
		rules:    map[string][]rule{},
		calls:    map[string]int64{},
		counts:   map[string]int64{},
	}
	for _, raw := range strings.Split(schedule, ";") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		r, err := parseRule(raw)
		if err != nil {
			return nil, err
		}
		if r.kind == KindPartition && r.op != "conn" {
			return nil, fmt.Errorf("faultinject: %q: partition faults apply to the conn pseudo-op only", raw)
		}
		in.rules[r.op] = append(in.rules[r.op], r)
	}
	return in, nil
}

// MustParse is Parse for static schedules; it panics on a bad one.
func MustParse(schedule string, seed int64) *Injector {
	in, err := Parse(schedule, seed)
	if err != nil {
		panic(err)
	}
	return in
}

func parseRule(raw string) (rule, error) {
	opRest := strings.SplitN(raw, ":", 2)
	if len(opRest) != 2 || strings.TrimSpace(opRest[0]) == "" {
		return rule{}, fmt.Errorf("faultinject: rule %q: want op:fault@occurrences", raw)
	}
	faultOcc := strings.SplitN(opRest[1], "@", 2)
	if len(faultOcc) != 2 {
		return rule{}, fmt.Errorf("faultinject: rule %q: missing @occurrences", raw)
	}
	r := rule{op: strings.TrimSpace(opRest[0])}

	fault := strings.TrimSpace(faultOcc[0])
	switch {
	case fault == "err":
		r.kind = KindErr
	case fault == "drop":
		r.kind = KindDrop
	case strings.HasPrefix(fault, "delay="):
		d, err := time.ParseDuration(fault[len("delay="):])
		if err != nil || d < 0 {
			return rule{}, fmt.Errorf("faultinject: rule %q: bad delay %q", raw, fault)
		}
		r.kind, r.delay = KindDelay, d
	case strings.HasPrefix(fault, "partition="):
		n, err := strconv.ParseInt(fault[len("partition="):], 10, 64)
		if err != nil || n < 1 {
			return rule{}, fmt.Errorf("faultinject: rule %q: bad partition length %q", raw, fault)
		}
		r.kind, r.partN = KindPartition, n
	default:
		return rule{}, fmt.Errorf("faultinject: rule %q: unknown fault %q (want err, drop, delay=<dur>, partition=<n>)", raw, fault)
	}

	occ := strings.TrimSpace(faultOcc[1])
	switch {
	case occ == "*":
		r.every = true
	case strings.HasPrefix(occ, "p"):
		p, err := strconv.ParseFloat(occ[1:], 64)
		if err != nil || p <= 0 || p > 1 {
			return rule{}, fmt.Errorf("faultinject: rule %q: bad probability %q", raw, occ)
		}
		r.prob = p
	default:
		r.at = map[int64]bool{}
		for _, part := range strings.Split(occ, ",") {
			n, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
			if err != nil || n < 1 {
				return rule{}, fmt.Errorf("faultinject: rule %q: bad call index %q (1-based)", raw, part)
			}
			r.at[n] = true
		}
	}
	return r, nil
}

// BindMetrics mirrors every injection into reg as
// mamdr_fault_injected_total{op,kind} counters. Bind before evaluating.
func (in *Injector) BindMetrics(reg *telemetry.Registry) {
	if in == nil || reg == nil {
		return
	}
	in.mu.Lock()
	in.reg = reg
	in.counters = map[string]*telemetry.Counter{}
	in.mu.Unlock()
}

// Eval advances the call clock for op (and the conn pseudo-op) and
// returns the fault, if any, to apply to this call. A nil injector
// never injects.
func (in *Injector) Eval(op string) Fault {
	if in == nil {
		return Fault{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()

	var f Fault

	// Connection-level rules tick on every call, whatever the method.
	connCall := in.calls["conn"] + 1
	in.calls["conn"] = connCall
	if in.partitionLeft > 0 {
		in.partitionLeft--
		f.DropConn = true
		f.Err = &InjectedError{Op: "conn", Kind: KindPartition, Call: connCall}
		in.countLocked("conn", KindPartition)
	}
	for _, r := range in.rules["conn"] {
		if !r.matches(connCall, in.rng) {
			continue
		}
		switch r.kind {
		case KindDrop:
			f.DropConn = true
			in.countLocked("conn", KindDrop)
		case KindErr:
			f.Err = &InjectedError{Op: "conn", Kind: KindErr, Call: connCall}
			in.countLocked("conn", KindErr)
		case KindDelay:
			f.Delay += r.delay
			in.countLocked("conn", KindDelay)
		case KindPartition:
			// This call and the next partN-1 fail at the connection level.
			f.DropConn = true
			f.Err = &InjectedError{Op: "conn", Kind: KindPartition, Call: connCall}
			in.partitionLeft = r.partN - 1
			in.countLocked("conn", KindPartition)
		}
	}

	// Per-method rules.
	call := in.calls[op] + 1
	in.calls[op] = call
	for _, r := range in.rules[op] {
		if !r.matches(call, in.rng) {
			continue
		}
		switch r.kind {
		case KindErr:
			f.Err = &InjectedError{Op: op, Kind: KindErr, Call: call}
		case KindDelay:
			f.Delay += r.delay
		case KindDrop:
			f.DropConn = true
		}
		in.countLocked(op, r.kind)
	}
	return f
}

// countLocked tallies one injection. Callers hold mu.
func (in *Injector) countLocked(op string, kind Kind) {
	key := op + ":" + string(kind)
	in.counts[key]++
	if in.reg == nil {
		return
	}
	c, ok := in.counters[key]
	if !ok {
		c = in.reg.Counter("mamdr_fault_injected_total",
			"Faults injected by the faultinject schedule, by operation and kind.",
			telemetry.L("op", op), telemetry.L("kind", string(kind)))
		in.counters[key] = c
	}
	c.Inc()
}

// Counts returns a snapshot of injected-fault tallies keyed "op:kind".
func (in *Injector) Counts() map[string]int64 {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]int64, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}

// Schedule returns the schedule string the injector was parsed from.
func (in *Injector) Schedule() string {
	if in == nil {
		return ""
	}
	return in.schedule
}

// Seed returns the seed driving the injector's probabilistic rules.
func (in *Injector) Seed() int64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// String summarizes the injector for logs and flight-recorder dumps.
func (in *Injector) String() string {
	if in == nil {
		return "faultinject(off)"
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	keys := make([]string, 0, len(in.counts))
	for k := range in.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "faultinject(seed=%d, schedule=%q", in.seed, in.schedule)
	for _, k := range keys {
		fmt.Fprintf(&b, ", %s=%d", k, in.counts[k])
	}
	b.WriteString(")")
	return b.String()
}
