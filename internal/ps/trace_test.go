package ps

import (
	"bytes"
	"encoding/json"
	"net"
	"testing"

	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/models"
	"mamdr/internal/trace"
)

// TestRPCTracePropagation runs a 2-worker distributed training session
// over a real TCP socket with *separate* tracers on the worker and
// server processes' sides, and verifies the TraceContext carried in the
// RPC arguments stitches the two span streams together: at least one
// server-side PS span must be parented to a worker-side inner-step span
// and share its trace id, and the merged stream must render as valid
// Chrome trace-event JSON.
func TestRPCTracePropagation(t *testing.T) {
	ds := testDataset(t)
	factory := replicaFactory(ds)
	serving := factory()
	server := NewServer(serving.Parameters(), models.EmbeddingTablesOf(serving), "adagrad", 0.1)

	serverTracer := trace.New(trace.Options{Sample: 1, FlightSize: -1})
	serverSpans := trace.NewCollector(0)
	serverTracer.AddSink(serverSpans)
	server.SetTracer(serverTracer)

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go Serve(server, lis)

	client, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	workerTracer := trace.New(trace.Options{Sample: 1, FlightSize: -1})
	workerSpans := trace.NewCollector(0)
	workerTracer.AddSink(workerSpans)
	client.SetTracer(workerTracer)

	res := TrainWithStore(factory, serving, client, client, ds, Options{
		Workers: 2, Epochs: 10, Seed: 9, CacheEnabled: true, Tracer: workerTracer,
	})
	auc := framework.MeanAUC(res.State, ds, data.Test)
	if auc < 0.5 {
		t.Fatalf("traced RPC training collapsed: AUC %.4f", auc)
	}

	// Index the worker-side inner-step spans by id.
	steps := map[uint64]*trace.Span{}
	for _, s := range workerSpans.Spans() {
		if s.Name == "worker.inner_step" {
			steps[s.ID] = s
		}
	}
	if len(steps) == 0 {
		t.Fatal("no worker.inner_step spans collected on the worker side")
	}

	// Server-side spans issued from inside a worker inner step must have
	// adopted the worker's trace context from the RPC arguments: Remote
	// flag set, parent = the calling inner-step span, same trace id.
	// (Calls with no live caller span — e.g. the final serving-state
	// snapshot — legitimately start fresh server-side roots.)
	linked := 0
	for _, s := range serverSpans.Spans() {
		if step, ok := steps[s.ParentID]; ok {
			if !s.Remote {
				t.Fatalf("server-side span %s adopted a worker parent but is not marked Remote", s.Name)
			}
			if s.TraceID != step.TraceID {
				t.Fatalf("span %s parented to inner step but trace ids differ: %x vs %x",
					s.Name, s.TraceID, step.TraceID)
			}
			linked++
		}
	}
	if linked == 0 {
		t.Fatalf("no server-side PS span parented to a worker-side inner-step span (%d server spans, %d steps)",
			len(serverSpans.Spans()), len(steps))
	}

	// The merged two-process stream must be loadable Chrome trace JSON.
	merged := append(append([]*trace.Span{}, workerSpans.Spans()...), serverSpans.Spans()...)
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, merged, 1, 0); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("merged trace is not valid Chrome trace-event JSON: %v", err)
	}
	if len(events) != len(merged) {
		t.Fatalf("chrome export lost events: %d spans, %d events", len(merged), len(events))
	}
}
