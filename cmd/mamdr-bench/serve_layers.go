package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"mamdr/internal/batch"
	"mamdr/internal/core"
	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/models"
	"mamdr/internal/paramvec"
	"mamdr/internal/quant"
	"mamdr/internal/serve"
	"mamdr/internal/telemetry"
	"mamdr/internal/trace"
)

// traced is the separate traced run of a serving workload: untraced
// control windows alternate with the same window under a span per
// request, so a slow phase of the host falls on both sides of
// bench.tracing_overhead_ratio; then per-layer timings are taken in
// process while the server is idle.
func (r *serveRig) traced(o *outcome) error {
	ls := r.loadSpec(0.15 * r.e.seconds)
	var control, traced []sample
	var late int
	var slo float64
	for i := 0; i < 2; i++ {
		ls.rec = nil
		c := runLoad(r.base, r.pools, ls)
		slo += r.account(o, c) / 2
		ls.rec = r.e.rec
		t := runLoad(r.base, r.pools, ls)
		r.account(o, t)
		control, traced = append(control, c.predicts...), append(traced, t.predicts...)
		late += c.late + t.late
	}
	o.set("bench.slo_ok_ratio", slo)
	if p50 := median(latenciesMS(control)); p50 > 0 {
		o.set("bench.tracing_overhead_ratio", median(latenciesMS(traced))/p50)
	}
	if ls.rate > 0 {
		o.set("bench.gen_late_ratio", float64(late)/float64(len(control)+len(traced)))
	}
	o.set("bench.test_auc", framework.MeanAUC(r.refs[0], r.ds, data.Test))
	r.registryCounts(o)

	sample := r.pools[0]
	if n := 4 * r.e.sz.layerReps; len(sample) > n {
		sample = sample[:n]
	}
	handlerUS := r.handlerStages(o, sample)
	r.transport(o, sample, handlerUS)
	r.feedback(o, sample)
	r.batchAndQuant(o)
	return r.publishPath(o, sample)
}

// registryCounts reads, after the windows, what the server counted.
func (r *serveRig) registryCounts(o *outcome) {
	snap := r.reg.Snapshot()
	o.set("batch.flush_full", seriesValue(snap, "mamdr_serve_batch_flushes_total", "reason", "full"))
	o.set("batch.flush_linger", seriesValue(snap, "mamdr_serve_batch_flushes_total", "reason", "linger"))
	o.set("batch.occupancy_mean", histogramMean(snap, "mamdr_serve_batch_occupancy"))
	o.set("quant.cache_hit_ratio", seriesValue(snap, "mamdr_serve_quant_cache_hit_ratio", "", ""))
	o.set("serve.shed_total", seriesValue(snap, "mamdr_serve_shed_total", "", ""))
	o.set("serve.timeout_total", seriesValue(snap, "mamdr_serve_pool_timeouts_total", "", ""))
}

// seriesValue sums the series of a family whose label matches (every
// series when label is empty).
func seriesValue(snap telemetry.RegistrySnapshot, family, label, value string) float64 {
	var total float64
	for _, f := range snap.Families {
		if f.Name != family {
			continue
		}
		for _, s := range f.Series {
			match := label == ""
			for _, l := range s.Labels {
				if l.Name == label && l.Value == value {
					match = true
				}
			}
			if match {
				total += s.Value
			}
		}
	}
	return total
}

func histogramMean(snap telemetry.RegistrySnapshot, family string) float64 {
	var sum float64
	var count int64
	for _, f := range snap.Families {
		if f.Name == family {
			for _, s := range f.Series {
				sum += s.Sum
				count += s.Count
			}
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// serveInProcess answers one request through the handler with a
// recorder: no socket, no client.
func serveInProcess(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return w
}

// handlerStages times, request by request, the whole handler in process,
// then the public functions a /predict is made of (one span per stage
// under a per-request root), then the handler of a second server that
// differs only in having metrics, quality tracking and tracing off. The
// three are interleaved so that a slow phase of the host falls on all of
// them. What the handler spends beyond the five stages is reported as
// serve.other_us, not hidden.
func (r *serveRig) handlerStages(o *outcome, sample []request) float64 {
	rec := r.e.rec
	ref := r.refs[0]
	params := ref.Model.Parameters()
	bare := serve.NewWithOptions(&core.State{Model: r.newModel(), Shared: ref.Shared, Specific: ref.Specific}, r.ds, r.options(false))
	defer bare.Close()
	bareHandler := bare.Handler()
	composed := map[int]paramvec.Vector{}
	for i := range sample { // compose every domain once, as warm-up did for the real server
		if d := sample[i].domain; composed[d] == nil {
			_, sp := rec.root("core.compose")
			composed[d] = ref.ComposedFor(d)
			sp.End()
			serveInProcess(bareHandler, "/predict", sample[i].body)
		}
	}
	for i := range sample {
		q := &sample[i]
		_, sp := rec.root("serve.handler")
		w := serveInProcess(r.handler, "/predict", q.body)
		sp.End()
		if w.Code != http.StatusOK {
			o.violate("in-process /predict: status %d", w.Code)
		}

		ctx, root := rec.root("bench.request")
		_, sp = trace.Start(ctx, "serve.decode")
		var req serve.PredictRequest
		err := json.NewDecoder(bytes.NewReader(q.body)).Decode(&req)
		sp.End()
		if err != nil {
			o.violate("decode: %v", err)
			continue
		}
		_, sp = trace.Start(ctx, "data.make_batch")
		ins := make([]data.Interaction, len(req.Users))
		for j := range ins {
			ins[j] = data.Interaction{User: req.Users[j], Item: req.Items[j]}
		}
		b := r.ds.MakeBatch(req.Domain, ins)
		sp.End()
		_, sp = trace.Start(ctx, "paramvec.restore")
		paramvec.Restore(params, composed[req.Domain])
		sp.End()
		_, sp = trace.Start(ctx, "models.forward")
		logits := ref.Model.Forward(b, false)
		probs := framework.SigmoidAll(logits)
		logits.Release()
		sp.End()
		_, sp = trace.Start(ctx, "serve.encode")
		var buf bytes.Buffer
		err = json.NewEncoder(&buf).Encode(serve.PredictResponse{Probabilities: probs, RequestID: "0123456789abcdef"})
		sp.End()
		root.End()
		if err != nil {
			o.violate("encode: %v", err)
		}

		_, sp = rec.root("serve.handler_bare")
		serveInProcess(bareHandler, "/predict", q.body)
		sp.End()
	}
	handler := rec.medianUS("serve.handler")
	stages := 0.0
	for metric, span := range map[string]string{
		"serve.decode_us": "serve.decode", "data.make_batch_us": "data.make_batch",
		"paramvec.restore_us": "paramvec.restore", "models.forward_us": "models.forward",
		"serve.encode_us": "serve.encode",
	} {
		us := rec.medianUS(span)
		o.set(metric, us)
		stages += us
	}
	o.set("serve.handler_us", handler)
	o.set("serve.other_us", handler-stages)
	o.set("serve.restore_share", rec.medianUS("paramvec.restore")/handler)
	o.set("serve.forward_share", rec.medianUS("models.forward")/handler)
	o.set("core.compose_us", rec.medianUS("core.compose"))
	if bareUS := rec.medianUS("serve.handler_bare"); bareUS > 0 {
		o.set("obs.overhead_ratio", handler/bareUS)
	}
	return handler
}

// transport is what one sequential keep-alive client pays on top of the
// handler: client p50 − handler p50 over the same requests.
func (r *serveRig) transport(o *outcome, sample []request, handlerUS float64) {
	c := newClient(r.base)
	defer c.close()
	for i := range sample {
		_, sp := r.e.rec.root("client.sequential")
		var resp serve.PredictResponse
		err := c.post("/predict", sample[i].body, &resp)
		sp.End()
		if err != nil {
			o.violate("sequential client: %v", err)
		}
	}
	o.set("http.transport_us", r.e.rec.medianUS("client.sequential")-handlerUS)
}

// feedback times POST /feedback in process; each needs a prediction of
// its own to join.
func (r *serveRig) feedback(o *outcome, sample []request) {
	for i := range sample {
		w := serveInProcess(r.handler, "/predict", sample[i].body)
		var resp serve.PredictResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.RequestID == "" {
			o.violate("in-process /predict carried no request_id: %v", err)
			return
		}
		body, _ := json.Marshal(serve.FeedbackRequest{RequestID: resp.RequestID, Labels: sample[i].labels})
		_, sp := r.e.rec.root("quality.feedback")
		w = serveInProcess(r.handler, "/feedback", body)
		sp.End()
		if w.Code != http.StatusOK {
			o.violate("in-process /feedback: status %d: %s", w.Code, bytes.TrimSpace(w.Body.Bytes()))
			return
		}
	}
	o.set("quality.feedback_us", r.e.rec.medianUS("quality.feedback"))
}

// batchAndQuant times the coalescer and the int8 codec on their own, at
// the settings of the throughput profile.
func (r *serveRig) batchAndQuant(o *outcome) {
	rec := r.e.rec
	n := r.e.sz.layerReps

	co := batch.New(batch.Options{MaxRows: 64, Linger: 500 * time.Microsecond, Run: func(_ int, items []*batch.Item) {
		for _, it := range items {
			it.Resolve(nil)
		}
	}})
	rec.time("batch.lone_item", n, func() {
		it := batch.NewItem(context.Background(), 1, nil)
		if err := co.Submit(0, it); err != nil {
			o.violate("coalescer submit: %v", err)
			return
		}
		<-it.Result()
	})
	co.Close()
	o.set("batch.lone_item_us", rec.medianUS("batch.lone_item"))

	ref := r.refs[0]
	tables := models.EmbeddingTablesOf(ref.Model)
	params := ref.Model.Parameters()
	full := ref.ComposedFor(0)
	for p := range params {
		if _, ok := tables[p]; !ok {
			continue
		}
		rows, cols := params[p].Rows, params[p].Cols
		var tbl *quant.Table
		rec.time("quant.quantize", n/4+1, func() { tbl = quant.Quantize(full[p], rows, cols) })
		o.set("quant.quantize_ms", rec.medianUS("quant.quantize")/1000)
		touched := rows
		if touched > 1024 {
			touched = 1024
		}
		cache := quant.NewRowCache(4096)
		get := func() {
			for row := 0; row < touched; row++ {
				cache.Get(quant.Key{Param: p, Row: row}, cols, func(dst []float64) { tbl.Row(row, dst) })
			}
		}
		rec.time("quant.row_miss", 1, get) // every row decodes
		rec.time("quant.row_hit", n, get)  // every row is resident
		o.set("quant.row_miss_ns", rec.medianUS("quant.row_miss")*1000/float64(touched))
		o.set("quant.row_hit_ns", rec.medianUS("quant.row_hit")*1000/float64(touched))
		return // one table is the measurement; the first is the largest id space
	}
}

// publishPath times checkpoint save and load, Server.Publish, POST
// /admin/publish, and what the first request per domain pays after a
// publish against a repeat of the same request. It publishes copies of
// the state already served, so answers do not change.
func (r *serveRig) publishPath(o *outcome, sample []request) error {
	rec := r.e.rec
	path := filepath.Join(r.e.tmp, "layers.ckpt")
	defer os.Remove(path)
	var err error
	rec.time("core.save", 1, func() { err = r.refs[0].Save(path) })
	if err != nil {
		return err
	}
	if fi, err := os.Stat(path); err == nil {
		o.set("core.checkpoint_mb", float64(fi.Size())/1e6)
	}
	loaded := &core.State{Model: r.newModel()}
	rec.time("core.load", 1, func() { err = loaded.Load(path) })
	if err != nil {
		return err
	}
	rec.time("serve.publish", 1, func() { _, _, err = r.srv.Publish(loaded, 0, 0, nil) })
	if err != nil {
		return err
	}
	touched := r.firstAndSteady(o, sample)

	body, _ := json.Marshal(serve.PublishRequest{Path: path})
	_, sp := rec.root("serve.admin_publish")
	w := serveInProcess(r.handler, "/admin/publish", body)
	sp.End()
	if w.Code != http.StatusOK {
		return fmt.Errorf("in-process /admin/publish: status %d: %s", w.Code, bytes.TrimSpace(w.Body.Bytes()))
	}
	r.firstAndSteady(o, sample)

	o.set("core.save_ms", rec.medianUS("core.save")/1000)
	o.set("core.load_ms", rec.medianUS("core.load")/1000)
	o.set("serve.publish_ms", rec.medianUS("serve.publish")/1000)
	o.set("serve.admin_publish_ms", rec.medianUS("serve.admin_publish")/1000)
	o.set("serve.first_touch_ms", rec.medianUS("serve.first_touch")/1000)
	o.set("serve.steady_ms", rec.medianUS("serve.steady")/1000)
	o.note("first_touch_domains", float64(touched), "count")
	return nil
}

// firstAndSteady sends, right after a publish, one request per distinct
// domain of the sample (every domain is cold) and then the same
// requests again.
func (r *serveRig) firstAndSteady(o *outcome, sample []request) int {
	seen := map[int]bool{}
	var firsts []*request
	for i := range sample {
		if !seen[sample[i].domain] {
			seen[sample[i].domain] = true
			firsts = append(firsts, &sample[i])
		}
	}
	for _, name := range []string{"serve.first_touch", "serve.steady"} {
		for _, q := range firsts {
			_, sp := r.e.rec.root(name)
			w := serveInProcess(r.handler, "/predict", q.body)
			sp.End()
			if w.Code != http.StatusOK {
				o.violate("%s: status %d", name, w.Code)
			}
		}
	}
	return len(firsts)
}
