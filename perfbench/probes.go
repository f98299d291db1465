package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"caraoke/internal/api"
	"caraoke/internal/collector"
	"caraoke/internal/core"
	"caraoke/internal/dsp"
	"caraoke/internal/phy"
	"caraoke/internal/telemetry"
)

// perCall times fn in batches for about budget and returns the median
// time of one call. Batching keeps the clock reads out of calls that
// take nanoseconds.
func perCall(budget time.Duration, batch int, fn func()) time.Duration {
	var samples []float64
	for start := time.Now(); len(samples) < 3 || time.Since(start) < budget; {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		samples = append(samples, float64(time.Since(t0))/float64(batch))
	}
	return time.Duration(median(samples))
}

// allocsPerCall is the heap allocations one warmed call of fn makes.
func allocsPerCall(runs int, fn func()) float64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// probeLayers measures every per-layer metric that is not a trace
// share: it times calls into each layer's public functions on inputs
// generated from the seed, and runs short versions of the workloads for
// the quantities only a running system shows. budget is the time one
// micro-probe may take; the system probes take a few multiples of it.
func probeLayers(e *env, budget time.Duration) (map[string]float64, error) {
	m := map[string]float64{}
	if err := probeReader(e, budget, m); err != nil {
		return nil, fmt.Errorf("reader probes: %w", err)
	}
	if err := probeIngest(e, budget, m); err != nil {
		return nil, fmt.Errorf("ingest probes: %w", err)
	}
	if err := probeCity(e, budget, m); err != nil {
		return nil, fmt.Errorf("city probes: %w", err)
	}
	m["process.peak_rss_mb"] = peakRSSMB()
	return m, nil
}

// probeReader covers the reader side: rfsim, dsp, core, phy, reader and
// telemetry, on windows of the lowest, the reference and the highest
// density.
func probeReader(e *env, budget time.Duration, m map[string]float64) error {
	ws, err := buildWindows(e, 1)
	if err != nil {
		return err
	}
	var ref *window
	for _, w := range ws {
		if w.sc.density == e.sz.refDensity {
			ref = w
		}
	}
	if ref == nil {
		return fmt.Errorf("no window at the reference density %d", e.sz.refDensity)
	}
	sc, p := ref.sc, ref.sc.rd.Params
	capture := ref.mcs[0].Reference()

	// Record the decode stream before any timed loop draws from the
	// scene's random stream: how many draws a timed loop makes depends on
	// the clock, and core.decode_queries_per_id must depend on the seed
	// alone.
	var scratch core.Scratch
	spikes, err := scratch.AnalyzeCaptures(ref.mcs, p, 1)
	if err != nil {
		return err
	}
	ds := &decodeScene{sc: sc, freqs: singleTargets(spikes)}
	if ds.stream, err = sc.record(e.sz.decodeBudget); err != nil {
		return err
	}

	m["rfsim.capture_us"] = us(perCall(budget, 1, func() { sc.rd.Query(sc.devs, sc.rng) }))

	var plan dsp.Plan
	var spec dsp.Spectrum
	m["dsp.spectrum2048_us"] = us(perCall(budget, 8, func() { plan.SpectrumInto(&spec, capture, p.SampleRate) }))
	m["dsp.goertzel2048_us"] = us(perCall(budget, 32, func() { dsp.Goertzel(capture, 0.123) }))

	analyze := func(w *window, workers int) func() {
		return func() { scratch.AnalyzeCaptures(w.mcs, p, workers) }
	}
	serial := perCall(budget, 1, analyze(ref, 1))
	m["core.analyze_ms"] = ms(serial)
	m["core.analyze_allocs_per_window"] = allocsPerCall(5, analyze(ref, 1))
	// Two workers need two processors; the rest of the run has one.
	was := runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	m["core.analyze_speedup_w2"] = float64(serial) / float64(perCall(budget, 1, analyze(ref, 2)))
	runtime.GOMAXPROCS(was)
	// The marginal cost of a spike: the analysis-time difference between
	// the sparsest and the densest window over their spike-count
	// difference.
	lo, hi := ws[0], ws[len(ws)-1]
	loSpikes, _ := scratch.AnalyzeCaptures(lo.mcs, p, 1)
	nLo := len(loSpikes)
	hiSpikes, _ := scratch.AnalyzeCaptures(hi.mcs, p, 1)
	nHi := len(hiSpikes)
	if nHi > nLo {
		dt := perCall(budget, 1, analyze(hi, 1)) - perCall(budget, 1, analyze(lo, 1))
		m["core.analyze_us_per_spike"] = us(dt) / float64(nHi-nLo)
	}

	if len(ds.freqs) > 0 {
		decode := func() { ds.decode(nil, -1) }
		m["core.decode_ms"] = ms(perCall(budget, 1, decode))
		m["core.decode_allocs_per_scene"] = allocsPerCall(3, decode)
		res, _, _, err := ds.decode(nil, -1)
		if err != nil {
			return err
		}
		queries := 0
		for _, r := range res {
			queries += r.Queries
		}
		if len(res) > 0 {
			m["core.decode_queries_per_id"] = float64(queries) / float64(len(res))
		}
	}

	if len(sc.devs) > 0 {
		env, err := phy.ModulateFrame(&sc.devs[0].Frame, p.SampleRate)
		if err != nil {
			return err
		}
		var demod phy.DemodScratch
		m["phy.demod_us"] = us(perCall(budget, 8, func() { demod.DemodulateFrame(env, p.SampleRate) }))
	}

	m["reader.window_ms"] = ms(perCall(budget, 1, func() { sc.rd.Measure(sc.devs, e.sz.queries, sc.rng) }))
	count := core.CountFromSpikes(spikes)
	m["reader.report_us"] = us(perCall(budget, 32, func() { sc.rd.Report(count, sceneEpoch) }))

	rep := sc.rd.Report(count, sceneEpoch)
	wire, err := rep.Marshal()
	if err != nil {
		return err
	}
	m["telemetry.marshal_ns"] = float64(perCall(budget, 64, func() { rep.Marshal() }))
	m["telemetry.unmarshal_ns"] = float64(perCall(budget, 64, func() { telemetry.UnmarshalReport(wire) }))
	batch := make([]*telemetry.Report, 8)
	for i := range batch {
		batch[i] = rep
	}
	var framed bytes.Buffer
	if err := telemetry.WriteBatch(&framed, batch); err != nil {
		return err
	}
	m["telemetry.batch8_bytes_per_report"] = float64(framed.Len()) / 8

	// Store.Add without TCP: fresh stores, so every add takes the insert
	// path and none the dedupe path.
	const adds = 2000
	reps := make([]telemetry.Report, adds)
	for i := range reps {
		reps[i] = *rep
		reps[i].ReaderID = uint32(1 + i%e.sz.stormIDs)
		reps[i].Seq = uint32(1 + i/e.sz.stormIDs)
	}
	m["collector.store_add_ns"] = float64(perCall(budget, 1, func() {
		store := collector.NewShardedStore(e.sz.stormKeep, collector.DefaultShards)
		for i := range reps {
			store.Add(&reps[i])
		}
	})) / adds
	return nil
}

// probeIngest runs a short storm into one collector (uplink cost, wire
// bytes, dedupe and redelivery counts), the open-loop freshness probe
// after it, and the same storm routed over a partitioned cluster.
func probeIngest(e *env, budget time.Duration, m map[string]float64) error {
	reports, err := buildReports(e)
	if err != nil {
		return err
	}
	tgt, err := singleCollector(e.sz.stormKeep)
	if err != nil {
		return err
	}
	st, err := newStorm(e, reports, tgt)
	if err != nil {
		return err
	}
	defer st.close()
	o := st.measure(nil, 5*budget)
	if len(o.problems) > 0 {
		return fmt.Errorf("storm: %s", o.problems[0])
	}
	for k, v := range o.layer {
		m[k] = v
	}
	visible, late, err := st.openLoop(10 * budget)
	if err != nil {
		return fmt.Errorf("open loop: %w", err)
	}
	m["collector.visible_us_p50"] = median(visible)
	m["collector.visible_us_p99"] = quantile(visible, 0.99)
	m["collector.probe_late_us_p99"] = quantile(late, 0.99)

	ctgt, skew, err := clusterCollector(e.sz.queryPartitions, e.sz.stormKeep, e.sz.stormIDs)
	if err != nil {
		return err
	}
	cst, err := newStorm(e, reports, ctgt)
	if err != nil {
		return err
	}
	defer cst.close()
	co := cst.measure(nil, 5*budget)
	if len(co.problems) > 0 {
		return fmt.Errorf("cluster storm: %s", co.problems[0])
	}
	m["cluster.ingest_reports_per_s"] = co.opsPerS
	m["cluster.skew"] = skew
	return nil
}

// probeCity sets up query_mix's partitioned city once and reads off it
// the city, collector-query, cluster and api probes, then runs a short
// query mix and a short chain.
func probeCity(e *env, budget time.Duration, m map[string]float64) error {
	qm, err := newQueryMix(e)
	if err != nil {
		return err
	}
	defer qm.close()
	res := qm.res
	m["city.newsim_ms"] = qm.newsimMs
	m["city.run_cpu_s"] = qm.runCPUS

	if len(res.Decoded) == 0 {
		return fmt.Errorf("the set-up city decoded no id to query for")
	}
	car := res.Decoded[0]
	home := res.Cluster.Partition(0).Store
	for i := 0; i < res.Cluster.NumPartitions(); i++ {
		if st := res.Cluster.Partition(i).Store; len(st.SightingsSnapshot()) > 0 {
			home = st
			break
		}
	}
	var homeID uint64
	for id := range home.SightingsSnapshot() {
		homeID = max(homeID, id)
	}
	m["collector.findcar_ns"] = float64(perCall(budget, 256, func() { home.FindCar(homeID) }))
	m["collector.cfo_ns"] = float64(perCall(budget, 8, func() { home.SightingsByCFO(car.FreqHz, 500) }))
	m["cluster.findcar_ns"] = float64(perCall(budget, 256, func() { res.Cluster.FindCar(car.ID) }))
	m["collector.speed_check_us"] = us(perCall(budget, 8, func() { qm.speed.Check(car.FreqHz, 500, time.Hour, res.End) }))

	// Handler cost on a recorder: a warm key with the clock frozen, then
	// the same key with the clock stepped past its TTL before every call.
	now := res.End
	srv := api.New(api.Config{Directory: res.Directory(), Speed: qm.speed, Now: func() time.Time { return now }})
	req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/car/%#x", car.ID), nil)
	serve := func() { srv.ServeHTTP(httptest.NewRecorder(), req) }
	serve()
	m["api.hit_us"] = us(perCall(budget, 16, serve))
	m["api.miss_us"] = us(perCall(budget, 16, func() {
		now = now.Add(2 * api.DefaultCarTTL)
		serve()
	}))

	o := qm.measure(nil, 10*budget)
	if len(o.problems) > 0 {
		return fmt.Errorf("query mix: %s", o.problems[0])
	}
	for k, v := range o.layer {
		m[k] = v
	}

	// city.overhead_ratio: the CPU the city run spent per reader-epoch
	// over the time the bare chain of public calls takes per reader-epoch
	// on the same density mix. What exceeds 1 is the coordinator, the
	// claim step, pipeline hand-offs and garbage collection.
	ch, err := newChain(e, qm.counts)
	if err != nil {
		return err
	}
	defer ch.close()
	co := ch.measure(nil, 10*budget)
	if len(co.problems) > 0 {
		return fmt.Errorf("chain: %s", co.problems[0])
	}
	readerEpochs := float64(e.sz.cityReaders * e.sz.queryCityEpochs)
	m["city.overhead_ratio"] = qm.runCPUS / readerEpochs / (co.layer["chain.epoch_ms"] / 1e3)
	return nil
}
