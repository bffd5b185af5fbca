package cluster

import (
	"fmt"
	"net"
	"strings"
	"sync"

	"mamdr/internal/autograd"
	"mamdr/internal/framework"
	"mamdr/internal/ps"
	"mamdr/internal/trace"
)

// ShardOptions configures how Shards, or a Host's install, builds the
// per-shard ps.Servers.
type ShardOptions struct {
	// Replicas is how many identical servers host each shard (at least 1).
	// With R > 1 the router broadcasts writes to all replicas and fails
	// reads over, so losing R-1 servers of a shard is survivable.
	Replicas int
	// OuterOpt and OuterLR configure each shard's outer optimizer (Eq. 3;
	// ps.NewServer decides what zero values mean).
	OuterOpt string
	OuterLR  float64
	// CheckpointPath, when set, is the cluster's base checkpoint path;
	// shard sh replica r persists to ps.ShardCheckpointPath(base, sh, N)
	// (plus a ".r<r>" suffix for backup replicas).
	CheckpointPath string
	// Spec is the run the shards host: every shard file records it, and
	// a restore refuses a file that recorded another.
	Spec framework.Spec
	// Tracer, when non-nil, is attached to every shard server so
	// server-side spans join the workers' traces.
	Tracer *trace.Tracer
	// Metrics, when non-nil, is attached to every shard server, so the
	// PS traffic of all the shards one process hosts lands in one
	// registry, scraped once on that process's /metrics/snapshot.
	Metrics *ps.Metrics
}

// Shards builds the cluster's shard servers: for each of the plan's
// partitions, Replicas identical ps.Servers seeded with that partition's
// slice of params. Because every replica starts from the same slice and
// the router broadcasts writes in replica order, replicas stay
// bit-identical until one dies.
func Shards(params []*autograd.Tensor, plan ps.Plan, o ShardOptions) [][]*ps.Server {
	out := make([][]*ps.Server, plan.NumShards)
	for sh := 0; sh < plan.NumShards; sh++ {
		tables := plan.ShardTables(sh)
		for rep := 0; rep < max(o.Replicas, 1); rep++ {
			out[sh] = append(out[sh], shardServer(plan.ShardParams(params, sh), tables, sh, plan.NumShards, rep, o))
		}
	}
	return out
}

// shardServer builds replica rep of shard sh of n over the shard's
// params, as every placement does: in process, or on a host slot.
func shardServer(params []*autograd.Tensor, tables map[int]int, sh, n, rep int, o ShardOptions) *ps.Server {
	srv := ps.NewServer(params, tables, o.OuterOpt, o.OuterLR)
	if o.CheckpointPath != "" {
		// Backups get a suffix, so replicas on one filesystem never
		// clobber each other's file.
		p := ps.ShardCheckpointPath(o.CheckpointPath, sh, n)
		if rep > 0 {
			p = fmt.Sprintf("%s.r%d", p, rep)
		}
		srv.SetCheckpoint(p, o.Spec)
	}
	srv.SetTracer(o.Tracer)
	srv.SetMetrics(o.Metrics)
	return srv
}

// Host serves an empty shard slot at every address (ParseAddrs' grid)
// and returns the bound addresses and a function that closes the slots.
// The trainer's Deploy installs one shard replica of its run on each
// slot, and each install replaces what the last session left. o holds
// the host's own CheckpointPath, Tracer and Metrics.
func Host(addrs [][]string, o ShardOptions) ([][]string, func(), error) {
	install := func(a ps.InstallArgs) *ps.Server {
		params := make([]*autograd.Tensor, len(a.Values))
		for t, v := range a.Values {
			params[t] = autograd.Param(a.Layout.Rows[t], a.Layout.Cols[t], v)
		}
		so := o // slots install concurrently
		so.OuterOpt, so.OuterLR, so.Spec = a.OuterOpt, a.OuterLR, a.Spec
		return shardServer(params, a.Layout.Tables(), a.Shard, a.Shards, a.Replica, so)
	}
	return listen(addrs, func(_, _ int, lis net.Listener) { ps.ServeSlot(lis, install) })
}

// Placement says where a Deployment's shard servers run: in this
// process behind one shared router (the zero value), on loopback TCP
// listeners (Loopback), or on the Host slots at Addrs (ParseAddrs'
// grouping, in the same replica order everywhere; the plan must have
// len(Addrs) shards).
type Placement struct {
	Addrs    [][]string
	Loopback bool // ignored with Addrs
	// Client, when non-nil, configures each ps.Client the deployment
	// dials before its first call (backoff, injector, metrics, tracer);
	// worker is the WorkerStore id, or -1 for the base router's clients.
	Client func(worker, sh, rep int, cl *ps.Client)
}

// Deployment is one shard cluster and every router fronting it. Servers
// are the shard servers this process hosts (nil when dialled at Addrs).
// Router is the base router: snapshots and checkpoints go through it,
// and in process every worker shares it.
type Deployment struct {
	Plan    ps.Plan
	Servers [][]*ps.Server
	Router  *Router

	addrs     [][]string // nil in process
	client    func(worker, sh, rep int, cl *ps.Client)
	opts      Options
	listeners func() // closes the loopback listeners; nil without them

	mu      sync.Mutex
	routers []*Router // Router, then each worker's
}

// Deploy partitions params per the plan and builds the cluster at the
// placement: shard servers, or at Addrs an install of each shard replica
// with so's outer optimizer and Spec on its host slot (whose own
// CheckpointPath, Tracer and Metrics apply); then the base router.
func Deploy(params []*autograd.Tensor, plan ps.Plan, so ShardOptions, ro Options, at Placement) (*Deployment, error) {
	d := &Deployment{Plan: plan, addrs: at.Addrs, client: at.Client, opts: ro}
	var err error
	if d.addrs != nil {
		if err := installShards(params, plan, so, d.addrs); err != nil {
			return nil, err
		}
	} else {
		d.Servers = Shards(params, plan, so)
		if !at.Loopback {
			stores := make([][]ps.Store, len(d.Servers))
			for sh, reps := range d.Servers {
				for _, srv := range reps {
					stores[sh] = append(stores[sh], srv)
				}
			}
			if d.Router, err = New(plan, stores, ro); err != nil {
				return nil, err
			}
			d.routers = []*Router{d.Router}
			return d, nil
		}
		if d.addrs, d.listeners, err = ServeTCP(d.Servers); err != nil {
			return nil, err
		}
	}
	if d.Router, err = d.dial(-1); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

// installShards puts each shard replica of the plan, with so's outer
// optimizer and Spec, on the host slot at addrs[shard][replica]. With a
// CheckpointPath the run checkpoints or resumes on the hosts' own
// paths, and a host without one refuses the install.
func installShards(params []*autograd.Tensor, plan ps.Plan, so ShardOptions, addrs [][]string) error {
	if len(addrs) != plan.NumShards {
		return fmt.Errorf("cluster: plan has %d shards, got %d endpoint groups", plan.NumShards, len(addrs))
	}
	for sh, reps := range addrs {
		a := ps.InstallArgs{Layout: plan.ShardLayout(sh), OuterOpt: so.OuterOpt, OuterLR: so.OuterLR, Spec: so.Spec,
			Shard: sh, Shards: len(addrs), Checkpoints: so.CheckpointPath != ""}
		for _, p := range plan.ShardParams(params, sh) {
			a.Values = append(a.Values, p.Data)
		}
		for rep, addr := range reps {
			a.Replica = rep
			cl, err := ps.Dial(addr)
			if err == nil {
				err = cl.Install(a)
				cl.Close()
			}
			if err != nil {
				return fmt.Errorf("cluster: install shard %d replica %d: %w", sh, rep, err)
			}
		}
	}
	return nil
}

// dial fronts the shards with a fresh router over its own ps.Clients.
func (d *Deployment) dial(worker int) (*Router, error) {
	var cfg func(sh, rep int, cl *ps.Client)
	if d.client != nil {
		cfg = func(sh, rep int, cl *ps.Client) { d.client(worker, sh, rep, cl) }
	}
	r, err := Dial(d.Plan, d.addrs, cfg, d.opts)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.routers = append(d.routers, r)
	d.mu.Unlock()
	return r, nil
}

// WorkerStore is a ps.Options.WrapStore. Over sockets each worker dials
// its own per-shard clients, so faults and retries are independent per
// (worker, shard); in process every worker shares base. A failed dial
// panics, as a ps.Store does on a lost server (WrapStore has no error).
func (d *Deployment) WorkerStore(worker int, base ps.Store) ps.Store {
	if d.addrs == nil {
		return base
	}
	r, err := d.dial(worker)
	if err != nil {
		panic(fmt.Errorf("cluster: worker %d: %w", worker, err))
	}
	return r
}

// Counters sums the logical traffic of every router the deployment
// built. A router counts only the calls made through it, and over
// sockets the workers train through their own routers, so the sum is
// what one shared in-process router counts.
func (d *Deployment) Counters() ps.Counters {
	d.mu.Lock()
	defer d.mu.Unlock()
	var sum ps.Counters
	for _, r := range d.routers {
		c := r.Counters()
		sum.DensePulls += c.DensePulls
		sum.DensePushes += c.DensePushes
		sum.RowPulls += c.RowPulls
		sum.RowPushes += c.RowPushes
		sum.FloatsMoved += c.FloatsMoved
	}
	return sum
}

// Close closes every router the deployment built (and with them every
// ps.Client it dialled), then the loopback listeners. Closing twice is
// harmless.
func (d *Deployment) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var first error
	for _, r := range d.routers {
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	if d.listeners != nil {
		d.listeners()
	}
	return first
}

// ServeTCP exposes every shard server on its own loopback TCP listener
// and returns the per-shard replica addresses plus a close function
// that stops all listeners. Each server runs ps.Serve in its own
// goroutine — the exact transport a multi-machine deployment uses.
func ServeTCP(servers [][]*ps.Server) ([][]string, func(), error) {
	addrs := make([][]string, len(servers))
	for sh, reps := range servers {
		for range reps {
			addrs[sh] = append(addrs[sh], "127.0.0.1:0")
		}
	}
	return listen(addrs, func(sh, rep int, lis net.Listener) { ps.Serve(servers[sh][rep], lis) })
}

// listen binds every address of the grid and runs serve on each
// listener in its own goroutine; it returns the bound addresses and a
// function that closes every listener.
func listen(addrs [][]string, serve func(sh, rep int, lis net.Listener)) ([][]string, func(), error) {
	bound := make([][]string, len(addrs))
	var listeners []net.Listener
	closeAll := func() {
		for _, lis := range listeners {
			lis.Close()
		}
	}
	for sh, reps := range addrs {
		for rep, addr := range reps {
			lis, err := net.Listen("tcp", addr)
			if err != nil {
				closeAll()
				return nil, nil, fmt.Errorf("cluster: listen for shard %d: %w", sh, err)
			}
			listeners = append(listeners, lis)
			bound[sh] = append(bound[sh], lis.Addr().String())
			go serve(sh, rep, lis)
		}
	}
	return bound, closeAll, nil
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
