package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// metricDef names one reported metric; the lists below are the ones
// BENCHMARK.json declares, in the same order.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a run with tracing off reports, on every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"build_s", "s"},
	{"peak_rss_mb", "MB"},
	{"lmp_precision_at_1", "ratio"},
	{"rps", "req/s"},
	{"predict_p50_us", "us"},
	{"predict_p90_us", "us"},
	{"query_p50_us", "us"},
	{"query_p90_us", "us"},
}

// perLayer are the metrics a traced run reports, on every workload. A
// layer the workload does not exercise (the gateway outside
// fleet-rollout) reads 0.
var perLayer = []metricDef{
	{"dataset.gen_s", "s"},
	{"motif.census_s", "s"},
	{"motif.census_cpu_s", "s"},
	{"motif.census_alloc_mb", "MB"},
	{"motif.classes", "count"},
	{"motif.uniqueness_s", "s"},
	{"motif.uniqueness_cpu_s", "s"},
	{"motif.uniqueness_alloc_mb", "MB"},
	{"motif.unique_ratio", "ratio"},
	{"label.labeling_s", "s"},
	{"label.labeling_cpu_s", "s"},
	{"label.labeling_alloc_mb", "MB"},
	{"label.cluster_busy_s", "s"},
	{"label.occurrences", "count"},
	{"label.labeled_motifs", "count"},
	{"artifact.build_s", "s"},
	{"artifact.index_s", "s"},
	{"artifact.encode_s", "s"},
	{"artifact.bytes", "bytes"},
	{"build.other_s", "s"},
	{"eval.loo_s", "s"},
	{"eval.lmp_recall_at_13", "ratio"},
	{"transport.predict_us", "us"},
	{"transport.query_us", "us"},
	{"serve.predict_handler_us", "us"},
	{"serve.query_handler_us", "us"},
	{"query.execute_us.scan", "us"},
	{"query.execute_us.filter", "us"},
	{"query.execute_us.group", "us"},
	{"query.execute_us.pinned", "us"},
	{"query.ns_per_row", "ns"},
	{"fleet.hop_us", "us"},
	{"fleet.upstream_per_request", "ratio"},
	{"fleet.hedges", "count"},
	{"fleet.rollout_ms", "ms"},
	{"serve.reload_ms", "ms"},
	{"fleet.rollouts", "count"},
	{"obs.access_log_dropped", "count"},
	{"process.gc_cycles", "count"},
	{"process.alloc_mb", "MB"},
	{"overhead.build_s_pct", "%"},
	{"overhead.rps_pct", "%"},
	{"overhead.predict_p50_us_pct", "%"},
	{"diag.predict_p99_us", "us"},
	{"diag.query_p99_us", "us"},
}

// metricSet collects measured values by name.
type metricSet struct {
	vals map[string]float64
}

func newMetricSet() *metricSet { return &metricSet{vals: map[string]float64{}} }

func (m *metricSet) set(name string, v float64) { m.vals[name] = v }

// result is the benchmark's verdict for one run.
type result struct {
	attempted, failed int64
	errs              []string
	metrics           *metricSet
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the run as a table on w and returns the one-line JSON
// result over defs. Every declared metric must have been measured and be
// finite.
func (r *result) report(w io.Writer, workload string, defs []metricDef) ([]byte, error) {
	out := map[string]metricOut{}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "%s\tvalue\tunit\t\n", workload)
	for _, d := range defs {
		v, ok := r.metrics.vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t\n", d.name, v, d.unit)
	}
	fmt.Fprintf(tw, "attempted\t%d\t\t\nfailed\t%d\t\t\n", r.attempted, r.failed)
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "failure: %s\n", e)
	}
	return json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, out})
}
