package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"caraoke/internal/api"
	"caraoke/internal/city"
	"caraoke/internal/cluster"
	"caraoke/internal/collector"
	"caraoke/internal/telemetry"
)

// queryMix is query_mix after set-up: a finished partitioned city run,
// the HTTP front end over its cluster on loopback, and one keep-alive
// client per core.
type queryMix struct {
	e   *env
	res *city.Result
	cl  *cluster.Cluster
	srv *api.Server
	// speed is the speed service behind srv, kept for the layer probes.
	speed *collector.SpeedService
	hs    *http.Server
	// served is closed when the HTTP server's accept loop has returned.
	served  chan struct{}
	clients []*http.Client

	carURLs, speedURLs, spotURLs []string
	base                         string
	expected                     []collector.CarSighting // Directory answer per carURLs entry
	templates                    map[uint32]*telemetry.Report
	nextSeq                      []uint32 // indexed by reader id
	clock                        func() time.Time
	// ticks counts finished operations; the clock is a function of it.
	ticks atomic.Int64
	// cycles holds each client's operations, repeated for as long as a run
	// lasts; pos is how many of them the client has done.
	cycles [][]mixOp
	pos    []int

	// Observed while laying out and running the set-up city, for the
	// city.* probes; counts is the run's density mix (every per-epoch §5
	// count), read before the retention window moves past the run.
	newsimMs, runCPUS float64
	counts            []int

	tr        atomic.Pointer[tracer]
	handlerMu sync.Mutex
	handlerUs []float64
}

// spanHeader carries the client's span index to the handler so the
// server-side span is recorded as its child.
const spanHeader = "X-Perf-Span"

// ServeHTTP wraps the api server: it times the handler from outside and,
// in a traced run, records the handler span under the client's.
func (qm *queryMix) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := qm.tr.Load()
	s := -1
	if tr != nil {
		if parent, err := strconv.Atoi(r.Header.Get(spanHeader)); err == nil {
			s = tr.child(parent, "api", "Server.ServeHTTP")
		}
	}
	t0 := time.Now()
	qm.srv.ServeHTTP(w, r)
	took := us(time.Since(t0))
	tr.end(s)
	qm.handlerMu.Lock()
	qm.handlerUs = append(qm.handlerUs, took)
	qm.handlerMu.Unlock()
}

func prepareQueryMix(e *env) (*prepared, error) {
	qm, err := newQueryMix(e)
	if err != nil {
		return nil, err
	}
	return &prepared{measure: qm.measure, close: qm.close}, nil
}

func newQueryMix(e *env) (*queryMix, error) {
	cfg := cityConfig(e, e.sz.queryCityEpochs)
	cfg.Partitions = e.sz.queryPartitions
	// A short retention window makes the stores reach their steady size
	// within the first second of writes, so a CFO scan costs the same at
	// the start of a run as at its end.
	cfg.Keep = e.sz.queryKeep
	qm := &queryMix{e: e, served: make(chan struct{})}
	t0 := time.Now()
	sim, err := city.NewSim(cfg)
	if err != nil {
		return nil, err
	}
	qm.newsimMs = ms(time.Since(t0))
	cpu0 := cpuSeconds()
	if qm.res, err = sim.Run(); err != nil {
		return nil, err
	}
	qm.runCPUS = cpuSeconds() - cpu0
	if qm.cl = qm.res.Cluster; qm.cl == nil {
		return nil, errors.New("query_mix needs a partitioned city run")
	}
	res := qm.res

	qm.speed = collector.NewSpeedService(res.Directory(), 13)
	for id, pos := range res.Poles {
		qm.speed.RegisterReader(id, pos)
	}
	park := collector.NewParkingService()
	var spots []int
	for spot, id := range res.ParkedSpots {
		if err := park.Arrive(spot, id, res.Start); err != nil {
			return nil, err
		}
		spots = append(spots, spot)
	}
	sort.Ints(spots)
	// The clock starts at the run's end and advances by queryStep with
	// every operation, so cache TTLs really expire during the measurement
	// and which request finds its entry expired does not depend on how
	// fast the host happens to be.
	qm.clock = func() time.Time { return res.End.Add(time.Duration(qm.ticks.Load()) * e.sz.queryStep) }
	qm.srv = api.New(api.Config{Directory: res.Directory(), Speed: qm.speed, Parking: park, Now: qm.clock})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	qm.base = "http://" + ln.Addr().String()
	qm.hs = &http.Server{Handler: qm}
	go func() {
		defer close(qm.served)
		qm.hs.Serve(ln) // returns ErrServerClosed on close
	}()
	for g := 0; g < e.procs; g++ {
		qm.clients = append(qm.clients, &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
			Timeout:   30 * time.Second,
		})
	}

	for _, d := range res.Decoded {
		sgt, ok := res.Directory().FindCar(d.ID)
		if !ok {
			qm.close()
			return nil, fmt.Errorf("decoded id %#x is not in the directory", d.ID)
		}
		qm.carURLs = append(qm.carURLs, fmt.Sprintf("%s/car/%#x", qm.base, d.ID))
		qm.expected = append(qm.expected, sgt)
		f := url.QueryEscape(strconv.FormatFloat(d.FreqHz, 'g', -1, 64))
		qm.speedURLs = append(qm.speedURLs, qm.base+"/speed?freq="+f+"&tol=500")
	}
	for _, spot := range spots {
		qm.spotURLs = append(qm.spotURLs, fmt.Sprintf("%s/parking/%d", qm.base, spot))
	}

	// Writes replay each reader's latest report under fresh seqs, with
	// the decoded ids cleared (as on four epochs in five): the sighting
	// index stays what the set-up run left, so a /car answer for a known
	// id can be checked for exact equality while writes go on.
	qm.counts = countsOf(res, qm.homeStore)
	qm.templates = map[uint32]*telemetry.Report{}
	qm.nextSeq = make([]uint32, e.sz.cityReaders+1)
	for id := uint32(1); id <= uint32(e.sz.cityReaders); id++ {
		latest := qm.homeStore(id).Latest(id)
		if latest == nil {
			qm.close()
			return nil, fmt.Errorf("reader %d left no report", id)
		}
		tmpl := *latest
		tmpl.Spikes = append([]telemetry.SpikeRecord(nil), latest.Spikes...)
		for i := range tmpl.Spikes {
			tmpl.Spikes[i].DecodedID = 0
		}
		qm.templates[id] = &tmpl
		qm.nextSeq[id] = latest.Seq + 1
		// Fill the reader's retention window now: a CFO scan walks a
		// reader's whole history when its latest reports lack the CFO, so
		// requests would otherwise slow down over the first second of
		// writes and the run would measure the transient.
		for n := 0; n < e.sz.queryKeep; n += e.sz.writeBatch {
			qm.write(id)
		}
	}
	for g := range qm.clients {
		qm.cycles = append(qm.cycles, qm.buildCycle(g))
	}
	qm.pos = make([]int, len(qm.clients))
	qm.warm()
	return qm, nil
}

// write ingests one batch of fresh reports from reader id into its home
// store. Each reader id is written by one goroutine only.
func (qm *queryMix) write(id uint32) {
	batch := make([]*telemetry.Report, qm.e.sz.writeBatch)
	now := qm.clock()
	for k := range batch {
		rep := *qm.templates[id]
		rep.Seq = qm.nextSeq[id]
		qm.nextSeq[id]++
		rep.Timestamp = now
		batch[k] = &rep
	}
	qm.homeStore(id).AddBatch(batch)
}

func (qm *queryMix) homeStore(readerID uint32) *collector.Store {
	return qm.cl.Partition(qm.cl.HomeOf(readerID)).Store
}

func (qm *queryMix) close() {
	qm.hs.Close()
	<-qm.served
	for _, c := range qm.clients {
		c.Transport.(*http.Transport).CloseIdleConnections()
	}
}

// opRecord is one finished operation of one client.
type opRecord struct {
	at    time.Duration // completion, since the measurement started
	took  time.Duration
	write bool
}

// clientRun is what one client goroutine did.
type clientRun struct {
	first            int // position in the cycle of ops[0]; a multiple of queryBlock
	ops              []opRecord
	failed           int
	checked, matched int
	problems         []string
}

// carBody is the part of a /car answer checked against the directory.
type carBody struct {
	Found  bool    `json:"found"`
	Reader uint32  `json:"reader"`
	SeenNS int64   `json:"seen_ns"`
	FreqHz float64 `json:"freq_hz"`
}

// mixOp is one operation of a client's cycle.
type mixOp struct {
	// target is the request; empty for a write, and for a find-my-car
	// request whose id changes from cycle to cycle (fresh).
	target string
	// known is the index into carURLs of a decoded id, or -1.
	known int
	// write is the reader to ingest a batch under; 0 for a request.
	write uint32
	// fresh is the id of a /car request nobody has an answer for; cycle c
	// asks for fresh + c·freshStride, so the api cache never sees the
	// key twice within its TTL.
	fresh int
}

// freshStride is coprime to any id space a power of ten long.
const freshStride = 7919

// pick draws the next request of the mix: half find-my-car (four-fifths
// of those skewed over the decoded ids, one-fifth uniform over an id
// space larger than the cache, mostly 404s), a quarter speed checks, a
// quarter parking.
func (qm *queryMix) pick(rng *rand.Rand) mixOp {
	switch roll := rng.Float64(); {
	case roll < 0.5:
		if len(qm.carURLs) > 0 && rng.Float64() < 0.8 {
			known := rng.Intn(len(qm.carURLs))
			if rng.Float64() < 0.7 {
				known = rng.Intn((len(qm.carURLs) + 3) / 4)
			}
			return mixOp{target: qm.carURLs[known], known: known}
		}
		return mixOp{known: -1, fresh: rng.Intn(qm.e.sz.idSpace)}
	case roll < 0.75 && len(qm.speedURLs) > 0:
		return mixOp{target: qm.speedURLs[rng.Intn(len(qm.speedURLs))], known: -1}
	case len(qm.spotURLs) > 0 && rng.Float64() < 0.5:
		return mixOp{target: qm.spotURLs[rng.Intn(len(qm.spotURLs))], known: -1}
	}
	return mixOp{target: qm.base + "/parking", known: -1}
}

// buildCycle draws client g's queryCycle operations: the seeded mix,
// every writeEvery-th a write batch into one of the client's readers'
// home stores. A client repeats its cycle for as long as a run lasts, so
// the same block of the cycle does the same work every time round —
// which is what lets the run tell a slow stretch of the host from a slow
// request.
func (qm *queryMix) buildCycle(g int) []mixOp {
	e := qm.e
	rng := e.rng(int64(100 + g))
	var myReaders []uint32
	for id := g + 1; id <= e.sz.cityReaders; id += e.procs {
		myReaders = append(myReaders, uint32(id))
	}
	cycle := make([]mixOp, e.sz.queryCycle)
	for i := range cycle {
		if n := i + 1; n%e.sz.writeEvery == 0 && len(myReaders) > 0 {
			cycle[i] = mixOp{known: -1, write: myReaders[(n/e.sz.writeEvery)%len(myReaders)]}
		} else {
			cycle[i] = qm.pick(rng)
		}
	}
	return cycle
}

// url is the request mo makes the n-th time its cycle comes round.
func (qm *queryMix) url(mo mixOp, n int) string {
	if mo.target != "" {
		return mo.target
	}
	return qm.base + "/car/" + strconv.Itoa(1+(mo.fresh+n*freshStride)%qm.e.sz.idSpace)
}

// warm plays the first client's cycle straight into the handler until
// warmOps requests have been answered, so the timed run starts on a full
// api cache and in the rhythm of expiries the cycle settles into. A full
// cache answers a new key slower than a filling one (it looks for an
// expired entry to reclaim), and under this mix the cache fills within
// the first second or two: without this the run would measure the
// transient.
func (qm *queryMix) warm() {
	cycle := qm.cycles[0]
	for i := 0; i < qm.e.sz.warmOps; i++ {
		if mo := cycle[i%len(cycle)]; mo.write == 0 {
			target := qm.url(mo, -1-i/len(cycle))
			qm.srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, target, nil))
		}
		qm.ticks.Add(1)
	}
}

// runClient is client g's closed loop: its cycle, from where the last
// run left it, in whole blocks until dur has passed.
func (qm *queryMix) runClient(g int, tr *tracer, start time.Time, dur time.Duration) *clientRun {
	e := qm.e
	run := &clientRun{first: qm.pos[g]}
	cycle := qm.cycles[g]
	client := qm.clients[g]
	var body bytes.Buffer
	knownCars := 0
	for ; qm.pos[g]%e.sz.queryBlock != 0 || time.Since(start) < dur; qm.pos[g]++ {
		mo := cycle[qm.pos[g]%len(cycle)]
		t0 := time.Now()
		op := tr.root(g, "harness", "operation")
		if mo.write != 0 {
			s := tr.child(op, "collector", "Store.AddBatch")
			qm.write(mo.write)
			tr.end(s)
			tr.end(op)
			qm.ticks.Add(1)
			run.ops = append(run.ops, opRecord{time.Since(start), time.Since(t0), true})
			continue
		}

		target := qm.url(mo, qm.pos[g]/len(cycle))
		req, err := http.NewRequest(http.MethodGet, target, nil)
		if err != nil {
			// Keeps its place in the block: a block is always queryBlock records.
			run.failed++
			run.problems = append(run.problems, err.Error())
			tr.end(op)
			run.ops = append(run.ops, opRecord{time.Since(start), time.Since(t0), false})
			continue
		}
		s := tr.child(op, "http", "Client.Do")
		if s >= 0 {
			req.Header.Set(spanHeader, strconv.Itoa(s))
		}
		resp, err := client.Do(req)
		status := 0
		if err == nil {
			status = resp.StatusCode
			body.Reset()
			_, err = io.Copy(&body, resp.Body)
			resp.Body.Close()
		}
		tr.end(s)
		tr.end(op)
		qm.ticks.Add(1)
		run.ops = append(run.ops, opRecord{time.Since(start), time.Since(t0), false})
		known := mo.known
		switch {
		case err != nil:
			run.failed++
			run.problems = append(run.problems, err.Error())
		case status >= 500:
			run.failed++
			run.problems = append(run.problems, fmt.Sprintf("%s answered %d", target, status))
		case known >= 0:
			if knownCars++; knownCars%e.sz.carCheckEvery != 0 {
				continue
			}
			run.checked++
			var got carBody
			want := qm.expected[known]
			if err := json.Unmarshal(body.Bytes(), &got); err != nil || status != http.StatusOK || !got.Found ||
				got.Reader != want.ReaderID || got.SeenNS != want.Seen.UnixNano() || got.FreqHz != want.FreqHz {
				run.failed++
				run.problems = append(run.problems, fmt.Sprintf("%s answered %d %s, directory says %+v", target, status, bytes.TrimSpace(body.Bytes()), want))
			} else {
				run.matched++
			}
		}
	}
	return run
}

// measure drives the mix from every client for dur.
func (qm *queryMix) measure(tr *tracer, dur time.Duration) *outcome {
	o := &outcome{layer: map[string]float64{}}
	qm.tr.Store(tr)
	qm.handlerMu.Lock()
	qm.handlerUs = qm.handlerUs[:0]
	qm.handlerMu.Unlock()
	hits0, misses0 := qm.srv.CacheStats()

	runs := make([]*clientRun, len(qm.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for g := range qm.clients {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			runs[g] = qm.runClient(g, tr, start, dur)
		}(g)
	}
	wg.Wait()
	wall := time.Since(start)
	qm.tr.Store(nil)

	// A block of queryBlock consecutive operations is the piece of work
	// timed; a block's identity is its place in its client's cycle.
	block := qm.e.sz.queryBlock
	perCycle := qm.e.sz.queryCycle / block
	var requestUs, blockP50 []float64
	writes, checked, matched := 0, 0, 0
	for _, run := range runs {
		o.attempted += len(run.ops)
		o.failed += run.failed
		checked += run.checked
		matched += run.matched
		for _, p := range run.problems {
			o.problemf("%s", p)
		}
		took := make(pieces, perCycle)
		p50 := make([][]float64, perCycle) // per identity: each repeat's median request time
		var began time.Duration
		var inBlock []float64
		for i, op := range run.ops {
			if op.write {
				writes++
			} else {
				inBlock = append(inBlock, us(op.took))
			}
			if (i+1)%block == 0 {
				id := (run.first + i) / block % perCycle
				took.add(id, op.at-began)
				began = op.at
				p50[id] = append(p50[id], median(inBlock))
				requestUs = append(requestUs, inBlock...)
				inBlock = inBlock[:0]
			}
		}
		// Clients run side by side: their rates add.
		o.opsPerS += took.rate(block)
		for _, xs := range p50 {
			if len(xs) > 0 {
				blockP50 = append(blockP50, fastest(xs))
			}
		}
	}
	o.opMs = median(blockP50) / 1e3
	if checked == 0 {
		o.failed++
		o.problemf("no /car answer for a known id was checked against the directory")
	}
	o.recoveredShare = float64(matched) / float64(max(checked, 1))

	hits, misses := qm.srv.CacheStats()
	hits, misses = hits-hits0, misses-misses0
	qm.handlerMu.Lock()
	handlerP50 := median(qm.handlerUs)
	qm.handlerMu.Unlock()
	o.layer["api.cache_hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
	o.layer["api.http_overhead_us"] = median(requestUs) - handlerP50
	o.layer["api.request_us_p90"] = quantile(requestUs, 0.90)
	o.layer["api.request_us_p99"] = quantile(requestUs, 0.99)
	o.layer["api.writes_per_s"] = float64(writes) / wall.Seconds()
	return o
}
