package main

import (
	"encoding/json"
	"regexp"
)

// metricSpec names one metric the harness emits. The end-to-end and
// per-layer tables below are the single source of the names, units and
// bounds: BENCHMARK.json is generated from them (-manifest) and the
// smoke test fails when the checked-in file and the tables disagree.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64 `json:"bound"`
	// SeedPure marks a metric that is a pure function of the seed: two
	// runs of one binary on one seed must report the identical value.
	SeedPure bool `json:"-"`
}

// Every workload emits every end-to-end metric; what "operation" means
// per workload is stated in workloads[].op and in the README's table.
// Timings are never totals over the run: a run is cut into pieces of a
// few milliseconds that recur, and reports the level the fastest of each
// piece's timings reach (see fastest in workloads.go).
var endToEnd = []metricSpec{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "recovered_share", Unit: "share", Better: "higher", Bound: 0.25, SeedPure: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer lists the traced run's metrics: one group per module, named
// module.quantity. The *.share metrics are the layer's self time in the
// selected workload's traced run over the traced wall (0 where the
// workload leaves the layer idle — the "should not move" prediction made
// visible); everything else is a probe that times calls into the
// layer's public functions on inputs generated from the seed, and reads
// the same on every workload.
var perLayer = []metricSpec{
	{Name: "rfsim.capture_us", Unit: "us", Better: "lower"},
	{Name: "rfsim.share", Unit: "share", Better: "lower"},
	{Name: "dsp.spectrum2048_us", Unit: "us", Better: "lower"},
	{Name: "dsp.goertzel2048_us", Unit: "us", Better: "lower"},
	{Name: "core.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "core.analyze_us_per_spike", Unit: "us", Better: "lower"},
	{Name: "core.analyze_allocs_per_window", Unit: "count", Better: "lower"},
	{Name: "core.analyze_speedup_w2", Unit: "x", Better: "higher"},
	{Name: "core.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "core.decode_queries_per_id", Unit: "count", Better: "lower"},
	{Name: "core.decode_allocs_per_scene", Unit: "count", Better: "lower"},
	{Name: "core.share", Unit: "share", Better: "lower"},
	{Name: "phy.demod_us", Unit: "us", Better: "lower"},
	{Name: "reader.window_ms", Unit: "ms", Better: "lower"},
	{Name: "reader.report_us", Unit: "us", Better: "lower"},
	{Name: "reader.share", Unit: "share", Better: "lower"},
	{Name: "telemetry.marshal_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.unmarshal_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.batch8_bytes_per_report", Unit: "B", Better: "lower"},
	{Name: "telemetry.wire_bytes_per_report", Unit: "B", Better: "lower"},
	{Name: "telemetry.share", Unit: "share", Better: "lower"},
	{Name: "collector.client_send_us", Unit: "us", Better: "lower"},
	{Name: "collector.store_add_ns", Unit: "ns", Better: "lower"},
	{Name: "collector.deduped", Unit: "count", Better: "lower"},
	{Name: "collector.redelivered", Unit: "count", Better: "lower"},
	{Name: "collector.visible_us_p50", Unit: "us", Better: "lower"},
	{Name: "collector.visible_us_p99", Unit: "us", Better: "lower"},
	{Name: "collector.probe_late_us_p99", Unit: "us", Better: "lower"},
	{Name: "collector.findcar_ns", Unit: "ns", Better: "lower"},
	{Name: "collector.cfo_ns", Unit: "ns", Better: "lower"},
	{Name: "collector.speed_check_us", Unit: "us", Better: "lower"},
	{Name: "collector.share", Unit: "share", Better: "lower"},
	{Name: "cluster.findcar_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.ingest_reports_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cluster.skew", Unit: "x", Better: "lower"},
	{Name: "api.hit_us", Unit: "us", Better: "lower"},
	{Name: "api.miss_us", Unit: "us", Better: "lower"},
	{Name: "api.cache_hit_ratio", Unit: "share", Better: "higher"},
	{Name: "api.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "api.request_us_p90", Unit: "us", Better: "lower"},
	{Name: "api.request_us_p99", Unit: "us", Better: "lower"},
	{Name: "api.writes_per_s", Unit: "1/s", Better: "higher"},
	{Name: "api.share", Unit: "share", Better: "lower"},
	{Name: "http.share", Unit: "share", Better: "lower"},
	{Name: "city.newsim_ms", Unit: "ms", Better: "lower"},
	{Name: "city.run_cpu_s", Unit: "s", Better: "lower"},
	{Name: "city.overhead_ratio", Unit: "x", Better: "lower"},
	{Name: "harness.share", Unit: "share", Better: "lower"},
	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	{Name: "trace.coverage", Unit: "share", Better: "higher"},
}

// traceLayers are the layers a span can belong to; each has a *.share
// metric above.
var traceLayers = []string{"rfsim", "core", "reader", "telemetry", "collector", "api", "http", "harness"}

// runSeconds is how long one contract run measures (BENCHMARK.json's
// run_seconds). Longer runs are steadier — every piece of work recurs
// more often, and one of its repeats is likelier to meet the host fast
// from beginning to end — and eighteen seconds of measuring plus set-up
// repeated for its median keeps the driver's 4 + 22 × 5 runs at about
// four fifths of its time limit.
const runSeconds = 18

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// manifest renders BENCHMARK.json from the tables.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerMetric struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []wl          `json:"workloads"`
		EndToEnd   []metricSpec  `json:"end_to_end"`
		PerLayer   []layerMetric `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, p := range perLayer {
		m.PerLayer = append(m.PerLayer, layerMetric{p.Name, p.Unit, p.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
