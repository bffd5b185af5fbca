package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// metricDef describes one metric of BENCHMARK.json. bound is the share
// of the parent's median by which an end-to-end metric may worsen
// before -compare calls it a regression; per-layer metrics have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd lists what a user of the trainer or the serving plane sees.
// Every workload reports every one of them: on train-* an operation is
// one epoch of a fit, on serve-* one /predict request.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"op_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer lists the metrics of single layers, named <package>.<metric>.
// A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{name: "core.dn_epoch_s", unit: "s", better: "lower"},
	{name: "core.dr_phase_s", unit: "s", better: "lower"},
	{name: "core.checkpoint_s", unit: "s", better: "lower"},
	{name: "bench.train_span_cover", unit: "ratio", better: "higher"},
	{name: "framework.domain_pass_us_per_batch", unit: "us", better: "lower"},
	{name: "framework.domain_gradient_us", unit: "us", better: "lower"},
	{name: "optim.step_us", unit: "us", better: "lower"},
	{name: "models.forward_us_b64", unit: "us", better: "lower"},
	{name: "data.batches_us_per_epoch", unit: "us", better: "lower"},
	{name: "autograd.matmul_us_b64", unit: "us", better: "lower"},
	{name: "autograd.matmul_us_b256", unit: "us", better: "lower"},
	{name: "autograd.kernel_threads", unit: "count", better: "higher"},
	{name: "paramvec.snapshot_us", unit: "us", better: "lower"},
	{name: "paramvec.restore_us", unit: "us", better: "lower"},
	{name: "paramvec.sum_us", unit: "us", better: "lower"},
	{name: "paramvec.sub_us", unit: "us", better: "lower"},
	{name: "paramvec.axpy_us", unit: "us", better: "lower"},
	{name: "paramvec.ops_per_epoch", unit: "count", better: "lower"},
	{name: "paramvec.share_of_epoch", unit: "ratio", better: "lower"},
	{name: "core.state_mb", unit: "MB", better: "lower"},
	{name: "core.alloc_mb_per_epoch", unit: "MB", better: "lower"},
	{name: "core.allocs_per_epoch", unit: "count", better: "lower"},
	{name: "core.predict_us", unit: "us", better: "lower"},
	{name: "framework.evaluate_auc_s", unit: "s", better: "lower"},
	{name: "ps.pull_dense_calls", unit: "count", better: "lower"},
	{name: "ps.pull_rows_calls", unit: "count", better: "lower"},
	{name: "ps.push_delta_calls", unit: "count", better: "lower"},
	{name: "ps.floats_moved", unit: "count", better: "lower"},
	{name: "ps.pull_dense_s", unit: "s", better: "lower"},
	{name: "ps.pull_rows_s", unit: "s", better: "lower"},
	{name: "ps.push_delta_s", unit: "s", better: "lower"},
	{name: "ps.sync_share", unit: "ratio", better: "lower"},
	{name: "ps.checkpoint_s", unit: "s", better: "lower"},
	{name: "ps.dr_phase_s", unit: "s", better: "lower"},
	{name: "serve.handler_us", unit: "us", better: "lower"},
	{name: "http.transport_us", unit: "us", better: "lower"},
	{name: "serve.decode_us", unit: "us", better: "lower"},
	{name: "serve.encode_us", unit: "us", better: "lower"},
	{name: "data.make_batch_us", unit: "us", better: "lower"},
	{name: "models.forward_us", unit: "us", better: "lower"},
	{name: "serve.other_us", unit: "us", better: "lower"},
	{name: "serve.restore_share", unit: "ratio", better: "lower"},
	{name: "serve.forward_share", unit: "ratio", better: "lower"},
	{name: "core.compose_us", unit: "us", better: "lower"},
	{name: "serve.publish_ms", unit: "ms", better: "lower"},
	{name: "serve.admin_publish_ms", unit: "ms", better: "lower"},
	{name: "core.load_ms", unit: "ms", better: "lower"},
	{name: "core.save_ms", unit: "ms", better: "lower"},
	{name: "core.checkpoint_mb", unit: "MB", better: "lower"},
	{name: "serve.first_touch_ms", unit: "ms", better: "lower"},
	{name: "serve.steady_ms", unit: "ms", better: "lower"},
	{name: "batch.lone_item_us", unit: "us", better: "lower"},
	{name: "batch.occupancy_mean", unit: "ratio", better: "higher"},
	{name: "batch.flush_full", unit: "count", better: "higher"},
	{name: "batch.flush_linger", unit: "count", better: "lower"},
	{name: "quant.row_hit_ns", unit: "ns", better: "lower"},
	{name: "quant.row_miss_ns", unit: "ns", better: "lower"},
	{name: "quant.quantize_ms", unit: "ms", better: "lower"},
	{name: "quant.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "quality.feedback_us", unit: "us", better: "lower"},
	{name: "obs.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "serve.shed_total", unit: "count", better: "lower"},
	{name: "serve.timeout_total", unit: "count", better: "lower"},
	{name: "bench.gen_late_ratio", unit: "ratio", better: "lower"},
	{name: "bench.tracing_overhead_ratio", unit: "ratio", better: "lower"},
	{name: "bench.test_auc", unit: "ratio", better: "higher"},
	{name: "bench.slo_ok_ratio", unit: "ratio", better: "higher"},
}

// env is what a workload run receives: pinned sizes, the seed its
// inputs derive from, the measured window, whether this is the traced
// run, and a scratch directory inside the working directory.
type env struct {
	sz      sizes
	seed    int64
	seconds float64
	rec     *recorder // nil on the untraced run
	tmp     string
}

// outcome is one workload run's result.
type outcome struct {
	attempted, failed int
	// violations are correctness failures that are not a failed
	// operation of their own (a score mismatch, an AUC that does not
	// repeat); any of them makes the run incorrect.
	violations []string
	values     map[string]float64
	// info lines are printed but are no BENCHMARK.json metric: sample
	// counts, test_auc, slo_ok_ratio on the untraced run.
	info []infoLine
}

type infoLine struct {
	name  string
	value float64
	unit  string
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

func (o *outcome) note(name string, v float64, unit string) {
	o.info = append(o.info, infoLine{name, v, unit})
}

func (o *outcome) violate(format string, args ...any) {
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
}

func (o *outcome) correct() bool { return o.failed == 0 && len(o.violations) == 0 }

// reportMetric and report are the last-line JSON object of the driver
// contract.
type reportMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]reportMetric `json:"metrics"`
}

// emit prints every metric as "workload metric value unit", then the
// contract's JSON object as the last line.
func emit(w io.Writer, name string, traced bool, o *outcome) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	rep := report{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: map[string]reportMetric{}}
	bw := bufio.NewWriter(w)
	for _, d := range defs {
		v := o.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			o.violate("metric %s is %v", d.name, v)
			rep.Correct = false
			v = 0
		}
		fmt.Fprintf(bw, "%s %s %s %s\n", name, d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
		rep.Metrics[d.name] = reportMetric{Value: v, Unit: d.unit}
	}
	for _, l := range o.info {
		fmt.Fprintf(bw, "%s %s %s %s\n", name, l.name, strconv.FormatFloat(l.value, 'g', -1, 64), l.unit)
	}
	fail := 0.0
	if o.attempted > 0 {
		fail = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(bw, "%s fail_ratio %g ratio\n", name, fail)
	for _, v := range o.violations {
		fmt.Fprintf(bw, "%s VIOLATION %s\n", name, strings.ReplaceAll(v, "\n", " "))
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	bw.Write(line)
	bw.WriteByte('\n')
	return bw.Flush()
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
