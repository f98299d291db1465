package main

import (
	"bytes"
	"os"
	"runtime"
	"testing"
	"time"
)

// tinySizes shrinks every workload so the whole suite smokes in a few
// seconds; the numbers mean nothing, the plumbing is what is tested.
var tinySizes = sizes{
	setupRepeats: 1,

	densities:    []int{3, 6},
	refDensity:   6,
	countScenes:  1,
	decodeScenes: 1,
	queries:      4,
	decodeBudget: 40,

	cityReaders: 2, cityVehicles: 12, cityParked: 2,
	cityRoundEpochs: 3,
	citySeeds:       2,
	cityWarmEpochs:  1,
	queryCityEpochs: 6,
	queryPartitions: 2,
	queryKeep:       32,

	stormIDs:      4,
	stormSeqs:     6,
	stormKeep:     64,
	openLoopRate:  2000,
	idSpace:       100,
	warmOps:       200,
	writeEvery:    10,
	writeBatch:    2,
	queryBlock:    10,
	queryCycle:    40,
	queryStep:     50 * time.Microsecond,
	carCheckEvery: 1,
}

func tinyEnv() *env {
	return &env{seed: 7, sz: tinySizes, procs: min(2, runtime.GOMAXPROCS(0))}
}

// checkMetrics requires run to carry exactly the metrics specs names,
// each with its unit and a well-formed name.
func checkMetrics(t *testing.T, run fileRun, specs []metricSpec) {
	t.Helper()
	for _, p := range run.Problems {
		t.Errorf("%s: check failed: %s", run.Workload, p)
	}
	if !run.Correct || run.Failed != 0 || run.Attempted < 1 {
		t.Errorf("%s: correct %v, attempted %d, failed %d", run.Workload, run.Correct, run.Attempted, run.Failed)
	}
	if len(run.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics, want %d", run.Workload, len(run.Metrics), len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if !nameRE.MatchString(s.Name) {
			t.Errorf("metric name %q is malformed", s.Name)
		}
		if seen[s.Name] {
			t.Errorf("metric %q is listed twice", s.Name)
		}
		seen[s.Name] = true
		v, ok := run.Metrics[s.Name]
		if !ok {
			t.Errorf("%s: metric %s is missing", run.Workload, s.Name)
		} else if v.Unit != s.Unit || v.Unit == "" {
			t.Errorf("%s: metric %s has unit %q, want %q", run.Workload, s.Name, v.Unit, s.Unit)
		}
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			run := runUntraced(w, tinyEnv(), 0.2)
			checkMetrics(t, run, endToEnd)
			for _, s := range endToEnd {
				if run.Metrics[s.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %g; it must never be 0", s.Name, run.Metrics[s.Name].Value)
				}
			}
		})
	}
}

func TestTracedRunSmoke(t *testing.T) {
	for _, name := range []string{"city_ref", "query_mix"} {
		w, _ := findWorkload(name)
		run, tr := runTraced(w, tinyEnv(), 0.4)
		checkMetrics(t, run, perLayer)
		if tr == nil {
			t.Fatalf("%s: no tracer", name)
		}
		if c := run.Metrics["trace.coverage"].Value; c < 0.9 || c > 1.0001 {
			t.Errorf("%s: layer self times sum to %.3f of the traced wall", name, c)
		}
	}
}

// TestManifestMatchesBenchmarkJSON keeps BENCHMARK.json and the tables
// the binary emits from in step.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the metric tables; regenerate it with\n\tgo run . -manifest > ../BENCHMARK.json")
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or a why of %d characters", w.name, len(w.why))
		}
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	// One 10 ms operation with two children covering 3 ms and 4 ms, the
	// second with a 1 ms grandchild.
	tr.names = []string{"harness", "core", "collector", "telemetry"}
	tr.spans = []span{
		{Layer: 0, Start: 0, End: ms(10), Parent: -1},
		{Layer: 1, Start: ms(1), End: ms(4), Parent: 0},
		{Layer: 2, Start: ms(5), End: ms(9), Parent: 0},
		{Layer: 3, Start: ms(6), End: ms(7), Parent: 2},
	}
	sum := tr.summarize()
	want := map[string]time.Duration{
		"harness": 3 * time.Millisecond, "core": 3 * time.Millisecond,
		"collector": 3 * time.Millisecond, "telemetry": time.Millisecond,
	}
	for layer, d := range want {
		if sum.Self[layer] != d {
			t.Errorf("%s self time %v, want %v", layer, sum.Self[layer], d)
		}
	}
	if sum.Wall != 10*time.Millisecond {
		t.Errorf("traced wall %v, want 10ms", sum.Wall)
	}
}

func TestVerdict(t *testing.T) {
	rate := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	pure := metricSpec{Name: "recovered_share", Better: "higher", Bound: 0.1, SeedPure: true}
	for _, c := range []struct {
		spec         metricSpec
		base, change []float64
		want         string
	}{
		{rate, []float64{100, 101, 102}, []float64{99, 100, 101}, "ok"},
		{rate, []float64{100, 101, 102}, []float64{80, 81, 82}, "regressed"},
		{rate, []float64{80, 100, 120}, []float64{85, 95, 110}, "unresolved"},
		{rate, []float64{80, 100, 120}, []float64{130, 150, 170}, "ok"},
		{pure, []float64{0.9, 0.9}, []float64{0.9, 0.9}, "same"},
		{pure, []float64{0.9, 0.9}, []float64{0.89, 0.89}, "regressed"},
	} {
		if got := verdict(c.spec, c.base, c.change); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.spec.Name, c.base, c.change, got, c.want)
		}
	}
}
