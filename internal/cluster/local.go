package cluster

import (
	"context"
	"fmt"
	"net"
	"strings"

	"mamdr/internal/autograd"
	"mamdr/internal/paramvec"
	"mamdr/internal/ps"
	"mamdr/internal/trace"
)

// ShardOptions configures how Shards builds the per-shard ps.Servers.
type ShardOptions struct {
	// Replicas is how many identical servers host each shard (>= 1).
	// With R > 1 the router broadcasts writes to all replicas and fails
	// reads over, so losing R-1 servers of a shard is survivable.
	Replicas int
	// OuterOpt and OuterLR configure each shard's outer optimizer (Eq. 3).
	OuterOpt string
	OuterLR  float64
	// CheckpointPath, when set, is the cluster's base checkpoint path;
	// shard sh replica r persists to ShardCheckpointPath(base, sh, N)
	// (plus a ".r<r>" suffix for backup replicas).
	CheckpointPath string
	// Tracer, when non-nil, is attached to every shard server so
	// server-side spans join the workers' traces.
	Tracer *trace.Tracer
	// Metrics, when non-nil, is attached to every shard server so PS
	// traffic lands in one registry — the registry the shard's RPC
	// MetricsSnapshot method exports for fleet federation.
	Metrics *ps.Metrics
}

func (o ShardOptions) withDefaults() ShardOptions {
	if o.Replicas < 1 {
		o.Replicas = 1
	}
	// Mirror ps.Options.WithDefaults so a shard server configured with
	// zero values applies the same outer update a default single server
	// would — a silently different outer learning rate on the serve side
	// would break bit-identity with in-process runs.
	if o.OuterOpt == "" {
		o.OuterOpt = "sgd"
	}
	if o.OuterLR == 0 {
		o.OuterLR = 0.5
	}
	return o
}

// ReplicaCheckpointPath derives the checkpoint path of replica rep of
// shard sh: the primary uses the plain per-shard path, backups append a
// replica suffix so a replicated cluster on one filesystem never has
// two servers clobbering the same file.
func ReplicaCheckpointPath(base string, sh, of, rep int) string {
	p := ps.ShardCheckpointPath(base, sh, of)
	if rep > 0 {
		p = fmt.Sprintf("%s.r%d", p, rep)
	}
	return p
}

// Shards builds the cluster's shard servers: for each of the plan's
// partitions, Replicas identical ps.Servers seeded with that partition's
// slice of params. Because every replica starts from the same slice and
// the router broadcasts writes in replica order, replicas stay
// bit-identical until one dies.
func Shards(params []*autograd.Tensor, plan ps.Plan, o ShardOptions) [][]*ps.Server {
	o = o.withDefaults()
	out := make([][]*ps.Server, plan.NumShards)
	for sh := 0; sh < plan.NumShards; sh++ {
		tables := plan.ShardTables(sh)
		for rep := 0; rep < o.Replicas; rep++ {
			srv := ps.NewServer(plan.ShardParams(params, sh), tables, o.OuterOpt, o.OuterLR)
			if o.CheckpointPath != "" {
				srv.SetCheckpointPath(ReplicaCheckpointPath(o.CheckpointPath, sh, plan.NumShards, rep))
			}
			srv.SetTracer(o.Tracer)
			srv.SetMetrics(o.Metrics)
			out[sh] = append(out[sh], srv)
		}
	}
	return out
}

// Local is a fully in-process sharded deployment: the plan, the shard
// servers, and a router over them. It is what tests, benchmarks, and
// single-binary training runs use.
type Local struct {
	Plan    ps.Plan
	Servers [][]*ps.Server
	Router  *Router
}

// NewLocal partitions params per the plan, builds the shard servers,
// and fronts them with a router.
func NewLocal(params []*autograd.Tensor, plan ps.Plan, so ShardOptions, ro Options) *Local {
	servers := Shards(params, plan, so)
	stores := make([][]ps.Store, len(servers))
	for sh, reps := range servers {
		for _, srv := range reps {
			stores[sh] = append(stores[sh], srv)
		}
	}
	router, err := New(plan, stores, ro)
	if err != nil {
		// The endpoints were just built from the same plan; a mismatch
		// here is a bug, not an environmental failure.
		panic(err)
	}
	return &Local{Plan: plan, Servers: servers, Router: router}
}

// Snapshot reassembles the full parameter vector from the shards — the
// cluster analogue of ps.Server.Snapshot, used to evaluate the trained
// model.
func (l *Local) Snapshot() paramvec.Vector { return l.Router.Snapshot() }

// ServeTCP exposes every shard server on its own loopback TCP listener
// and returns the per-shard replica addresses plus a close function
// that stops all listeners. Each server runs ps.Serve in its own
// goroutine — the exact transport a multi-machine deployment uses.
func ServeTCP(servers [][]*ps.Server) ([][]string, func(), error) {
	addrs := make([][]string, len(servers))
	var listeners []net.Listener
	closeAll := func() {
		for _, lis := range listeners {
			lis.Close()
		}
	}
	for sh, reps := range servers {
		for _, srv := range reps {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				closeAll()
				return nil, nil, fmt.Errorf("cluster: listen for shard %d: %w", sh, err)
			}
			listeners = append(listeners, lis)
			addrs[sh] = append(addrs[sh], lis.Addr().String())
			go ps.Serve(srv, lis)
		}
	}
	return addrs, closeAll, nil
}

// ParseAddrs reads the address list every cluster flag takes: shards
// separated by ',', the replicas of one shard by '|' ("a0|a1,b0|b1").
// Spaces around an address are trimmed and empty groups dropped, so ""
// yields no shards; callers decide whether that is an error.
func ParseAddrs(s string) [][]string {
	var out [][]string
	for _, shard := range strings.Split(s, ",") {
		var reps []string
		for _, a := range strings.Split(shard, "|") {
			if a = strings.TrimSpace(a); a != "" {
				reps = append(reps, a)
			}
		}
		if len(reps) > 0 {
			out = append(out, reps)
		}
	}
	return out
}

// Dial connects to an already-serving shard cluster: addrs[sh] lists
// the replica addresses of shard sh, in the same order everywhere (the
// router's replica protocol relies on a consistent ordering across
// workers). cfg, when non-nil, configures each ps.Client before its
// first call — the hook for attaching backoff policies, fault
// injectors, metrics, and tracers. New verifies every endpoint's layout
// against the plan, so dialing the wrong cluster fails here.
func Dial(plan ps.Plan, addrs [][]string, cfg func(sh, rep int, cl *ps.Client), opts Options) (*Router, error) {
	stores := make([][]ps.Store, len(addrs))
	var clients []*ps.Client
	for sh, reps := range addrs {
		for rep, addr := range reps {
			cl, err := ps.Dial(addr)
			if err != nil {
				for _, c := range clients {
					c.Close()
				}
				return nil, fmt.Errorf("cluster: shard %d replica %d: %w", sh, rep, err)
			}
			if cfg != nil {
				cfg(sh, rep, cl)
			}
			clients = append(clients, cl)
			stores[sh] = append(stores[sh], cl)
		}
	}
	r, err := New(plan, stores, opts)
	if err != nil {
		for _, c := range clients {
			c.Close()
		}
		return nil, err
	}
	return r, nil
}

// DialSnapshot dials the cluster and pulls a full parameter snapshot,
// retrying the whole dial+snapshot unit under a bounded seeded backoff.
// A serve instance typically races the cluster it fronts at startup —
// the shard servers may still be binding their listeners — so a single
// attempt turns an ordering accident into a dead fleet. Each retry
// starts from a fresh router: router condemnation is deliberately
// permanent (a replica that missed a write must never serve a read), so
// a router that watched the cluster come up half-alive must not be kept.
// The abandoned attempt's clients are closed before the backoff sleep.
// On success the caller owns both the router and the snapshot.
func DialSnapshot(ctx context.Context, plan ps.Plan, addrs [][]string, cfg func(sh, rep int, cl *ps.Client), opts Options, bo ps.Backoff) (*Router, paramvec.Vector, error) {
	bo = bo.WithDefaults()
	var lastErr error
	for att := 1; att <= bo.Attempts; att++ {
		if att > 1 {
			if err := bo.Wait(ctx, att-1); err != nil {
				return nil, nil, fmt.Errorf("cluster: dial+snapshot aborted after %d attempts: %w (last error: %v)", att-1, err, lastErr)
			}
		}
		r, err := Dial(plan, addrs, cfg, opts)
		if err != nil {
			lastErr = err
			continue
		}
		v, err := r.TrySnapshot()
		if err != nil {
			lastErr = err
			r.Close()
			continue
		}
		return r, v, nil
	}
	return nil, nil, fmt.Errorf("cluster: dial+snapshot failed after %d attempts: %w", bo.Attempts, lastErr)
}
