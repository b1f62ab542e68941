package main

import (
	"encoding/json"
	"fmt"
)

// metricDef names one reported metric and its unit. The tables below
// are the benchmark's contract: a run reports exactly the end-to-end
// set untraced and exactly the per-layer set traced, and BENCHMARK.json
// lists the same names and units (a test checks it).
type metricDef struct {
	name, unit string
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"arms_per_s", "1/s"},
	{"job_p50_s", "s"},
	{"cpu_s_per_arm", "s"},
	{"alloc_mb_per_arm", "MB"},
	{"peak_rss_mb", "MB"},
}

var perLayerMetrics = []metricDef{
	{"tensor.gemm_nt_gflops", "GFLOP/s"},
	{"tensor.gemm_tn_gflops", "GFLOP/s"},
	{"tensor.gemm_nn_gflops", "GFLOP/s"},
	{"tensor.cpu_share", "share"},
	{"nn.cpu_share", "share"},
	{"gossip.cpu_share", "share"},
	{"netmodel.cpu_share", "share"},
	{"par.cpu_share", "share"},
	{"core.cpu_share", "share"},
	{"mia.cpu_share", "share"},
	{"metrics.cpu_share", "share"},
	{"data.cpu_share", "share"},
	{"store.cpu_share", "share"},
	{"server.cpu_share", "share"},
	{"http.cpu_share", "share"},
	{"json.cpu_share", "share"},
	{"runtime.cpu_utilization", "share"},
	{"runtime.gc_cpu_share", "share"},
	{"experiment.arm_occupancy", "share"},
	{"experiment.arm_s_p50", "s"},
	{"gossip.msgs_per_arm", "count"},
	{"gossip.mib_per_arm", "MiB"},
	{"sink.events_per_arm", "count"},
	{"server.submit_ms_p50", "ms"},
	{"server.await_ms_p50", "ms"},
	{"server.first_event_ms_p50", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.local_arms", "count"},
	{"server.remote_arms", "count"},
	{"distrib.claim_ms_p50", "ms"},
	{"distrib.claim_ms_p99", "ms"},
	{"distrib.upload_ms_p50", "ms"},
	{"distrib.upload_ms_p99", "ms"},
	{"distrib.exec_ms_p50", "ms"},
	{"distrib.idle_claim_ratio", "ratio"},
	{"distrib.useful_ratio", "ratio"},
	{"distrib.slot_busy_share", "share"},
	{"distrib.reclaims", "count"},
	{"distrib.rejected", "count"},
	{"distrib.stale", "count"},
	{"dlsim.checksum_us_p50", "us"},
	{"store.open_ms", "ms"},
	{"store.scan_us_per_record", "us"},
	{"store.get_us_p50", "us"},
	{"store.segments", "count"},
	{"store.bytes_per_arm", "bytes"},
	{"store.bloom_fp_ratio", "ratio"},
	{"bench.jobs", "count"},
	{"trace.self_time_error", "ratio"},
	{"trace.job_p50_ratio", "ratio"},
	{"trace.arms_per_s_ratio", "ratio"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a run's outcome in the benchmark's output format.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	spans     []span
}

// set records a metric's value under the unit its table gives; a name
// in neither table is recorded without a unit and refused by line.
func (r *result) set(name string, v float64) {
	unit := ""
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		if d.name == name {
			unit = d.unit
		}
	}
	r.Metrics[name] = metric{v, unit}
}

// line checks that the result holds exactly the metrics of want, each
// with a valid name and unit, and renders the result line.
func (r *result) line(want []metricDef) (string, error) {
	if len(r.Metrics) != len(want) {
		return "", fmt.Errorf("result has %d metrics, want %d", len(r.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := r.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			return "", fmt.Errorf("result lacks metric %s (%s)", d.name, d.unit)
		}
		if err := validMetric(d.name, d.unit); err != nil {
			return "", err
		}
	}
	raw, err := json.Marshal(r)
	return string(raw), err
}
