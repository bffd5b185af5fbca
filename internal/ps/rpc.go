package ps

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"strings"
	"sync"
	"sync/atomic"

	"mamdr/internal/faultinject"
	"mamdr/internal/framework"
	"mamdr/internal/trace"
)

// The RPC transport lets workers talk to a parameter server across a
// real socket via net/rpc + gob, demonstrating that the protocol in
// worker.go is architecture-level: the same Worker code drives an
// in-process Server and a remote one.
//
// Every data call's arguments carry a trace.TraceContext, so the
// server-side span of a PullDense/PullRows/PushDelta links to the
// worker-side span that issued it even though the two ends run in
// different processes.
//
// Fault tolerance: every call — pulls and pushes alike — runs under a
// shared jittered-exponential-backoff retry policy (Backoff). Pushes
// became safe to retry once Delta grew its (WorkerID, Seq) idempotency
// token: a retried push whose first attempt actually landed is
// discarded server-side as a duplicate. A call that exhausts its
// retries dumps the flight recorder and panics, failing the worker's
// epoch loudly; the trainer's supervisor turns that panic into a dead
// worker and redistributes its domains.

// RPCService adapts a Server to net/rpc's method signature conventions.
// Each Install replaces a host slot's server.
type RPCService struct {
	server  atomic.Pointer[Server]
	install func(InstallArgs) *Server // nil: Install is refused
}

// PullDenseArgs carries a PullDense request.
type PullDenseArgs struct {
	TC trace.TraceContext
}

// PullRowsArgs carries a PullRows request.
type PullRowsArgs struct {
	TC     trace.TraceContext
	Tensor int
	Rows   []int
}

// PushDeltaArgs carries a PushDelta request.
type PushDeltaArgs struct {
	TC    trace.TraceContext
	Delta Delta
}

// SaveCheckpointArgs carries a SaveCheckpoint request.
type SaveCheckpointArgs struct {
	Epoch int
}

// InstallArgs carries an Install request: one replica of one shard of
// a run, as the trainer's cluster.Deploy sends it to a host slot.
// Values[t] holds tensor t's initial values, Rows[t]×Cols[t] of them;
// Shard of Shards and Replica name the host's checkpoint file.
// Checkpoints marks a session that checkpoints or resumes: a slot with
// no checkpoint path refuses it.
type InstallArgs struct {
	Layout                 Layout
	Values                 [][]float64
	OuterOpt               string
	OuterLR                float64
	Spec                   framework.Spec
	Shard, Shards, Replica int
	Checkpoints            bool
}

// Nothing is an empty argument/reply placeholder.
type Nothing struct{}

// remoteCtx rebuilds the calling worker's trace context on the server
// side, so the server's span joins the worker's trace.
func remoteCtx(srv *Server, tc trace.TraceContext) context.Context {
	return trace.WithRemote(context.Background(), srv.tracer, tc)
}

// Install replaces a host slot's server, and with it the last session's
// parameters, optimizer state and push sequences, with the one install
// builds from args. A malformed install, or one that checkpoints on a
// slot with no checkpoint path, is refused and the slot keeps what it
// had; net/rpc does not recover a panicking method, so a panic of the
// build (an unknown optimizer) is returned.
func (s *RPCService) Install(args InstallArgs, _ *Nothing) (err error) {
	if s.install == nil {
		return errors.New("ps: this server hosts a fixed shard and takes no install")
	}
	if err := args.Layout.Validate(-1); err != nil {
		return err
	}
	if err := args.Layout.Fit(args.Values); err != nil {
		return fmt.Errorf("ps: install values: %w", err)
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("ps: install: %v", p)
		}
	}()
	srv := s.install(args)
	if args.Checkpoints && srv.ckptPath == "" {
		return errors.New("ps: the session checkpoints or resumes, but this host has no checkpoint path: start it with -checkpoint-dir")
	}
	s.server.Store(srv)
	return nil
}

// Layout returns the server's tensor layout.
func (s *RPCService) Layout(_ Nothing, reply *Layout) error {
	*reply = s.server.Load().Layout()
	return nil
}

// PullDense returns all dense tensors.
func (s *RPCService) PullDense(args PullDenseArgs, reply *map[int][]float64) error {
	srv := s.server.Load()
	*reply = srv.PullDense(remoteCtx(srv, args.TC))
	return nil
}

// PullRows returns the requested embedding rows. Arguments off the
// socket are checked first: the Server panics on an out-of-range
// tensor or row, and net/rpc does not recover a panicking method, so
// one malformed call would end the hosting process.
func (s *RPCService) PullRows(args PullRowsArgs, reply *[][]float64) error {
	srv := s.server.Load()
	if err := checkRows(srv.layout, args.Tensor, args.Rows); err != nil {
		return err
	}
	*reply = srv.PullRows(remoteCtx(srv, args.TC), args.Tensor, args.Rows)
	return nil
}

// PushDelta applies a worker's outer-loop delta. The whole delta is
// checked against the layout before any of it applies, so a rejected
// push changes no parameter and does not advance the worker's sequence.
func (s *RPCService) PushDelta(args PushDeltaArgs, _ *Nothing) error {
	srv := s.server.Load()
	if err := checkDelta(srv.layout, args.Delta); err != nil {
		return err
	}
	srv.PushDelta(remoteCtx(srv, args.TC), args.Delta)
	return nil
}

// checkRows reports why rows of tensor t cannot be pulled or pushed:
// t is out of range or dense, or a row is out of range.
func checkRows(l Layout, t int, rows []int) error {
	if t < 0 || t >= l.NumTensors() || !l.IsTable(t) {
		return fmt.Errorf("ps: tensor %d is not an embedding table of this server", t)
	}
	for _, r := range rows {
		if r < 0 || r >= l.Rows[t] {
			return fmt.Errorf("ps: row %d of tensor %d is out of range [0, %d)", r, t, l.Rows[t])
		}
	}
	return nil
}

// checkDelta reports why d does not fit the layout: a dense delta for
// a tensor that is out of range or a table, or of the wrong length;
// rows that checkRows refuses; or row deltas that do not pair one to
// one with the rows at the table's width.
func checkDelta(l Layout, d Delta) error {
	for t, delta := range d.Dense {
		if t < 0 || t >= l.NumTensors() || l.IsTable(t) {
			return fmt.Errorf("ps: tensor %d is not a dense tensor of this server", t)
		}
		if want := l.Rows[t] * l.Cols[t]; len(delta) != want {
			return fmt.Errorf("ps: dense delta for tensor %d has %d values, want %d", t, len(delta), want)
		}
	}
	for t, rows := range d.Rows {
		if err := checkRows(l, t, rows); err != nil {
			return err
		}
		if len(d.RowDeltas[t]) != len(rows) {
			return fmt.Errorf("ps: tensor %d pushes %d rows with %d row deltas", t, len(rows), len(d.RowDeltas[t]))
		}
		for i, rd := range d.RowDeltas[t] {
			if len(rd) != l.Cols[t] {
				return fmt.Errorf("ps: delta for row %d of tensor %d has width %d, want %d", rows[i], t, len(rd), l.Cols[t])
			}
		}
	}
	return nil
}

// SaveCheckpoint persists the server's state (parameters, outer
// optimizer state, epoch cursor) to its configured checkpoint path.
func (s *RPCService) SaveCheckpoint(args SaveCheckpointArgs, _ *Nothing) error {
	return s.server.Load().SaveCheckpoint(args.Epoch)
}

// LoadCheckpoint restores the server from its configured checkpoint
// path and returns the completed-epoch cursor, or -1 when no
// checkpoint exists yet.
func (s *RPCService) LoadCheckpoint(_ Nothing, reply *int) error {
	epoch, err := s.server.Load().LoadCheckpoint()
	*reply = epoch
	return err
}

// Serve registers the server on a fresh rpc.Server and services the
// listener until it is closed. It is intended to run in its own
// goroutine; accept errors after Close are swallowed.
func Serve(server *Server, lis net.Listener) { serve(lis, server, nil) }

// ServeSlot is Serve for a host slot: it serves an empty server until an
// Install replaces it with what install builds from the checked args.
func ServeSlot(lis net.Listener, install func(InstallArgs) *Server) {
	serve(lis, NewServer(nil, nil, "", 0), install)
}

func serve(lis net.Listener, server *Server, install func(InstallArgs) *Server) {
	s := &RPCService{install: install}
	s.server.Store(server)
	srv := rpc.NewServer()
	if err := srv.RegisterName("PS", s); err != nil {
		panic(fmt.Sprintf("ps: rpc register: %v", err))
	}
	for {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		go srv.ServeConn(conn)
	}
}

// Client is a Store backed by a remote parameter server.
type Client struct {
	mu     sync.Mutex
	c      *rpc.Client // nil after a drop; conn() redials lazily
	addr   string
	layout Layout

	// backoff is the retry policy for every call; the zero value means
	// the default policy (seeded 0).
	backoff Backoff

	// injector, when non-nil, is consulted before every RPC attempt and
	// may fail it, delay it, or drop the connection first — the chaos
	// hook the fault-tolerance tests drive.
	injector *faultinject.Injector

	// metrics counts RPC failures and retries (and, like the server,
	// mirrors nothing when nil); tracer raises an rpc_error anomaly into
	// the flight recorder when a call exhausts its retries.
	metrics *Metrics
	tracer  *trace.Tracer
}

var _ Store = (*Client)(nil)
var _ CheckpointStore = (*Client)(nil)

// Dial connects to a parameter server at addr and fetches its layout.
func Dial(addr string) (*Client, error) {
	c, err := rpc.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ps: dial %s: %w", addr, err)
	}
	cl := &Client{c: c, addr: addr}
	if err := c.Call("PS.Layout", Nothing{}, &cl.layout); err != nil {
		c.Close()
		return nil, fmt.Errorf("ps: fetch layout from %s: %w", addr, err)
	}
	return cl, nil
}

// SetMetrics attaches failure counters. Attach before issuing calls.
func (cl *Client) SetMetrics(m *Metrics) { cl.metrics = m }

// SetTracer attaches the worker-side tracer so call failures raise an
// rpc_error anomaly into its flight recorder. Attach before issuing
// calls.
func (cl *Client) SetTracer(t *trace.Tracer) { cl.tracer = t }

// SetBackoff replaces the retry policy. Attach before issuing calls.
func (cl *Client) SetBackoff(b Backoff) { cl.backoff = b }

// SetInjector attaches a fault injector to the transport. Attach
// before issuing calls; nil disables injection.
func (cl *Client) SetInjector(in *faultinject.Injector) { cl.injector = in }

// Close releases the connection.
func (cl *Client) Close() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.c == nil {
		return nil
	}
	err := cl.c.Close()
	cl.c = nil
	return err
}

// conn returns the current connection, dialing a fresh one if the last
// was dropped or invalidated.
func (cl *Client) conn() (*rpc.Client, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.c == nil {
		c, err := rpc.Dial("tcp", cl.addr)
		if err != nil {
			return nil, err
		}
		cl.c = c
	}
	return cl.c, nil
}

// invalidate discards a connection that failed mid-call, so the next
// attempt redials. Only the caller holding the broken connection
// discards it; racers that arrive after the swap keep the fresh one.
func (cl *Client) invalidate(broken *rpc.Client) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.c == broken && broken != nil {
		broken.Close()
		cl.c = nil
	}
}

// dropConn force-closes the current connection (injected conn faults).
func (cl *Client) dropConn() {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.c != nil {
		cl.c.Close()
		cl.c = nil
	}
}

// transient reports whether an RPC failure is plausibly recoverable by
// reconnecting: a shut-down client, a dropped connection, any
// network-level error, or an injected fault — as opposed to a
// server-side application error.
func transient(err error) bool {
	if errors.Is(err, rpc.ErrShutdown) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var ie *faultinject.InjectedError
	if errors.As(err, &ie) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// callErr performs one logical RPC under the retry policy: transient
// transport failures (and injected faults) are retried with jittered
// exponential backoff up to the policy's attempt budget; server-side
// application errors and context cancellation stop retrying
// immediately. Every attempt first asks the fault injector for a
// verdict, so chaos schedules exercise exactly this code path. The
// injected-vs-organic distinction is visible on the call's span
// ("injected" attribute) and in the flight-recorder trigger fields.
func (cl *Client) callErr(ctx context.Context, method string, args, reply any) error {
	pol := cl.backoff.WithDefaults()
	op := strings.TrimPrefix(method, "PS.")
	_, sp := trace.Start(ctx, "ps.rpc", trace.A("method", op))
	injected := false
	var lastErr error

	for attempt := 1; attempt <= pol.Attempts; attempt++ {
		if attempt > 1 {
			cl.metrics.observeRPCRetry(op)
			if err := cl.backoff.Wait(ctx, attempt-1); err != nil {
				lastErr = err
				break
			}
		}
		if f := cl.injector.Eval(op); f.Err != nil || f.Delay > 0 || f.DropConn {
			if f.Delay > 0 {
				if err := sleepCtx(ctx, f.Delay); err != nil {
					lastErr = err
					break
				}
			}
			if f.DropConn {
				cl.dropConn()
			}
			if f.Err != nil {
				injected = true
				lastErr = f.Err
				cl.metrics.observeRPCFailure(op)
				continue
			}
		}
		conn, err := cl.conn()
		if err != nil {
			lastErr = err
			cl.metrics.observeRPCFailure(op)
			continue
		}
		if err := conn.Call(method, args, reply); err != nil {
			lastErr = err
			cl.metrics.observeRPCFailure(op)
			if !transient(err) {
				break // server-side application error: retrying cannot help
			}
			cl.invalidate(conn)
			continue
		}
		sp.EndWith(trace.A("attempts", attempt), trace.A("injected", injected))
		return nil
	}
	sp.EndWith(trace.A("attempts", pol.Attempts), trace.A("injected", injected),
		trace.A("error", lastErr.Error()))
	return lastErr
}

// call is callErr for calls the worker cannot survive: exhausting the
// retry budget dumps the flight recorder (with the trace context and
// whether the last failure was injected) and panics with the remote
// address and method, failing the epoch loudly — a worker must never
// silently desync from its parameter server.
func (cl *Client) call(ctx context.Context, method string, args, reply any) {
	err := cl.callErr(ctx, method, args, reply)
	if err == nil {
		return
	}
	var ie *faultinject.InjectedError
	fields := map[string]any{
		"method":   method,
		"addr":     cl.addr,
		"error":    err.Error(),
		"injected": errors.As(err, &ie),
	}
	if tc := trace.ContextOf(ctx); tc.Valid() {
		fields["trace_id"], fields["span_id"] = tc.TraceID, tc.SpanID
	}
	cl.tracer.Flight().Trigger("rpc_error", fields)
	panic(fmt.Sprintf("ps: rpc %s to %s: %v", method, cl.addr, err))
}

// Layout implements Store.
func (cl *Client) Layout() Layout { return cl.layout }

// PullDense implements Store.
func (cl *Client) PullDense(ctx context.Context) map[int][]float64 {
	var reply map[int][]float64
	cl.call(ctx, "PS.PullDense", PullDenseArgs{TC: trace.ContextOf(ctx)}, &reply)
	return reply
}

// PullRows implements Store.
func (cl *Client) PullRows(ctx context.Context, tensor int, rows []int) [][]float64 {
	var reply [][]float64
	cl.call(ctx, "PS.PullRows", PullRowsArgs{TC: trace.ContextOf(ctx), Tensor: tensor, Rows: rows}, &reply)
	return reply
}

// PushDelta implements Store. Pushes carry a (WorkerID, Seq) token, so
// the server discards a retried push whose earlier attempt actually
// landed — which is what makes retrying them safe at all. A push that
// exhausts its retries panics (epoch abort) rather than dropping the
// delta silently.
func (cl *Client) PushDelta(ctx context.Context, d Delta) {
	cl.call(ctx, "PS.PushDelta", PushDeltaArgs{TC: trace.ContextOf(ctx), Delta: d}, &Nothing{})
}

// Install puts args on the host slot the client dialled.
func (cl *Client) Install(args InstallArgs) error {
	return cl.callErr(context.Background(), "PS.Install", args, &Nothing{})
}

// SaveCheckpoint implements CheckpointStore over RPC: the server
// persists its state to its own configured checkpoint path.
func (cl *Client) SaveCheckpoint(epoch int) error {
	return cl.callErr(context.Background(), "PS.SaveCheckpoint", SaveCheckpointArgs{Epoch: epoch}, &Nothing{})
}

// LoadCheckpoint implements CheckpointStore over RPC. It returns -1
// with a nil error when the server has no checkpoint yet (net/rpc
// flattens error values, so absence is signaled in-band rather than
// with a sentinel error).
func (cl *Client) LoadCheckpoint() (int, error) {
	var epoch int
	if err := cl.callErr(context.Background(), "PS.LoadCheckpoint", Nothing{}, &epoch); err != nil {
		return 0, err
	}
	return epoch, nil
}
