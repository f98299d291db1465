package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"caraoke/internal/cluster"
	"caraoke/internal/collector"
	"caraoke/internal/telemetry"
)

// stormTarget is the collector tier a storm sends into: one collector,
// or a partitioned cluster reached through its routing table.
type stormTarget struct {
	addrs  []string                  // ingest address per partition
	stores []*collector.Store        // store per partition
	route  func(readerID uint32) int // reader id → partition
	wait   func(want map[uint32]uint32, timeout time.Duration) error
	stop   func()
}

func quiet(string, ...any) {}

func singleCollector(keep int) (*stormTarget, error) {
	store := collector.NewShardedStore(keep, collector.DefaultShards)
	srv := collector.NewServer(store)
	srv.Logf = quiet
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &stormTarget{
		addrs:  []string{addr.String()},
		stores: []*collector.Store{store},
		route:  func(uint32) int { return 0 },
		wait:   store.WaitHighWater,
		stop:   srv.Stop,
	}, nil
}

// clusterCollector homes ids 1..ids on a partitions-wide cluster, two
// readers per grid cell as internal/city deploys them. skew is the
// busiest partition's reader count over the mean.
func clusterCollector(partitions, keep, ids int) (tgt *stormTarget, skew float64, err error) {
	cl, err := cluster.New(cluster.Config{Partitions: partitions, Keep: keep, Logf: quiet})
	if err != nil {
		return nil, 0, err
	}
	tgt = &stormTarget{route: func(id uint32) int { return cl.HomeOf(id) }, wait: cl.WaitHighWater, stop: cl.Stop}
	const gridWidth = 6
	for id := 1; id <= ids; id++ {
		ix := (id - 1) / 2
		cl.Register(uint32(id), fmt.Sprintf("cell-%d-%d", ix%gridWidth, ix/gridWidth))
	}
	busiest := 0
	for i := 0; i < partitions; i++ {
		p := cl.Partition(i)
		tgt.addrs = append(tgt.addrs, p.Addr())
		tgt.stores = append(tgt.stores, p.Store)
		busiest = max(busiest, cl.ReadersOn(i))
	}
	return tgt, float64(busiest) * float64(partitions) / float64(ids), nil
}

// countingConn counts the bytes an uplink writes — the wire cost of a
// report including framing.
type countingConn struct {
	net.Conn
	wire *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.wire.Add(int64(n))
	return n, err
}

// sender is one generator goroutine of a storm: its share of the reader
// ids and one uplink per partition.
type sender struct {
	ids     []uint32
	clients []*collector.Client
	rep     telemetry.Report // the frame being sent; Send marshals before it returns
}

// storm sends realistic reports as single-report frames and waits until
// the store shows them.
type storm struct {
	e       *env
	tgt     *stormTarget
	reports []*telemetry.Report
	senders []*sender
	base    uint32 // seqs sent so far under every id
	wire    atomic.Int64
}

func newStorm(e *env, reports []*telemetry.Report, tgt *stormTarget) (*storm, error) {
	st := &storm{e: e, tgt: tgt, reports: reports}
	for g := 0; g < e.procs; g++ {
		sn := &sender{}
		for id := g + 1; id <= e.sz.stormIDs; id += e.procs {
			sn.ids = append(sn.ids, uint32(id))
		}
		for _, addr := range tgt.addrs {
			addr := addr
			c, err := collector.DialFunc(func() (net.Conn, error) {
				conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
				if err != nil {
					return nil, err
				}
				return countingConn{conn, &st.wire}, nil
			})
			if err != nil {
				st.close()
				return nil, err
			}
			sn.clients = append(sn.clients, c)
		}
		st.senders = append(st.senders, sn)
	}
	return st, nil
}

func (st *storm) close() {
	for _, sn := range st.senders {
		for _, c := range sn.clients {
			c.Close()
		}
	}
	st.tgt.stop()
}

// fill makes sn.rep the report (id, seq) carries.
func (st *storm) fill(sn *sender, id, seq uint32) {
	sn.rep = *st.reports[(int(id)+int(seq))%len(st.reports)]
	sn.rep.ReaderID = id
	sn.rep.Seq = seq
	sn.rep.Timestamp = sceneEpoch.Add(time.Duration(seq) * time.Second)
}

// round sends stormSeqs reports under every id, each sender over its own
// connection, and returns once every sender has seen its ids' reports
// land. sendUs is the mean time of the round's Client.Send calls.
func (st *storm) round(tr *tracer) (sent int, sendUs float64, err error) {
	k := uint32(st.e.sz.stormSeqs)
	errs := make([]error, len(st.senders))
	sending := make([]time.Duration, len(st.senders)) // spent inside Send
	// A sender's root span runs until the round's barrier, so the time a
	// fast sender waits there for a slow one is on the harness's account.
	roots := make([]int, len(st.senders))
	var wg sync.WaitGroup
	for g, sn := range st.senders {
		roots[g] = tr.root(g, "harness", "storm.round")
		wg.Add(1)
		go func(g int, sn *sender) {
			defer wg.Done()
			op := roots[g]
			for seq := st.base + 1; seq <= st.base+k; seq++ {
				for _, id := range sn.ids {
					st.fill(sn, id, seq)
					c := sn.clients[st.tgt.route(id)]
					t0 := time.Now()
					s := tr.child(op, "collector", "Client.Send")
					err := c.Send(&sn.rep)
					tr.end(s)
					sending[g] += time.Since(t0)
					if err != nil {
						errs[g] = err
						return
					}
				}
			}
			want := make(map[uint32]uint32, len(sn.ids))
			for _, id := range sn.ids {
				want[id] = st.base + k
			}
			s := tr.child(op, "collector", "Store.WaitHighWater")
			errs[g] = st.tgt.wait(want, 30*time.Second)
			tr.end(s)
		}(g, sn)
	}
	wg.Wait()
	for _, op := range roots {
		tr.end(op)
	}
	st.base += k
	var inSend time.Duration
	for g := range st.senders {
		if errs[g] != nil {
			return 0, 0, errs[g]
		}
		inSend += sending[g]
	}
	return st.perRound(), us(inSend) / float64(st.perRound()), nil
}

// perRound is how many reports one round sends.
func (st *storm) perRound() int { return st.e.sz.stormSeqs * st.e.sz.stormIDs }

// measure storms for dur, then checks that nothing was lost, duplicated
// or redelivered.
func (st *storm) measure(tr *tracer, dur time.Duration) *outcome {
	o := &outcome{layer: map[string]float64{}}
	sendUs := make([][]float64, len(st.reports)) // per identity: each round's mean Client.Send time
	var ops []int
	// Which reports a round carries depends on the seqs sent before it,
	// modulo the number of reports: rounds that agree there do the same
	// work, and are one piece timed again and again.
	took := make(pieces, len(st.reports))
	// Bytes per report are read off the first round alone: which reports a
	// round carries depends only on the seqs sent before it, so the figure
	// is the same however many rounds the clock allows.
	wire0 := st.wire.Load()
	var wirePerReport float64
	_, err := rounds(dur, func() error {
		id := int(st.base) % len(st.reports)
		t0 := time.Now()
		n, sendMean, err := st.round(tr)
		if err == nil {
			took.add(id, time.Since(t0))
			if len(ops) == 0 {
				wirePerReport = float64(st.wire.Load()-wire0) / float64(n)
			}
			ops = append(ops, n)
			sendUs[id] = append(sendUs[id], sendMean)
		}
		return err
	})
	if err != nil {
		o.failed++
		o.problemf("storm: %v", err)
	}
	sent := 0
	for _, n := range ops {
		sent += n
	}
	o.attempted = sent
	missing := 0
	for id := uint32(1); id <= uint32(st.e.sz.stormIDs); id++ {
		missing += len(st.tgt.stores[st.tgt.route(id)].MissingSeqs(id, st.base))
	}
	if missing > 0 {
		o.failed += missing
		o.problemf("%d reports missing after drain", missing)
	}
	deduped, redelivered, dropped := 0, 0, 0
	for _, s := range st.tgt.stores {
		deduped += s.DedupedTotal()
	}
	for _, sn := range st.senders {
		for _, c := range sn.clients {
			redelivered += c.Stats().Redelivered
			dropped += c.Stats().Dropped
		}
	}
	if dropped > 0 {
		o.failed += dropped
		o.problemf("%d reports dropped by the uplink", dropped)
	}
	o.opsPerS = took.rate(st.perRound())
	var sends []float64
	for _, xs := range sendUs {
		if len(xs) > 0 {
			sends = append(sends, fastest(xs))
		}
	}
	o.opMs = median(sends) / 1e3
	o.recoveredShare = float64(sent-missing) / float64(max(sent, 1))
	o.layer["collector.client_send_us"] = median(sends)
	o.layer["collector.deduped"] = float64(deduped)
	o.layer["collector.redelivered"] = float64(redelivered)
	o.layer["telemetry.wire_bytes_per_report"] = wirePerReport
	return o
}

// openLoop is the freshness probe: one sender offers reports at a fixed
// rate regardless of how the collector keeps up, and every
// visibleEvery-th report is timed from when it was due to be sent until
// the store shows it. late is how far behind schedule the generator
// itself ran.
func (st *storm) openLoop(dur time.Duration) (visibleUs, lateUs []float64, err error) {
	const visibleEvery = 20
	sn := st.senders[0]
	interval := time.Second / time.Duration(st.e.sz.openLoopRate)
	perID := max(int(dur/interval)/len(sn.ids), 1)
	n := perID * len(sn.ids)

	type probe struct {
		id, seq uint32
		due     time.Time
	}
	// Sized to the number of probes so the sender never blocks on the
	// watcher: an open loop must not slow down when the system does.
	probes := make(chan probe, n/visibleEvery+1)
	watched := make(chan error, 1)
	go func() {
		var werr error
		for p := range probes {
			if err := st.tgt.wait(map[uint32]uint32{p.id: p.seq}, 10*time.Second); err != nil {
				werr = err
			}
			visibleUs = append(visibleUs, us(time.Since(p.due)))
		}
		watched <- werr
	}()

	t0 := time.Now()
	for i := 0; i < n && err == nil; i++ {
		due := t0.Add(time.Duration(i) * interval)
		now := time.Now()
		if now.Before(due) {
			// Sleeping (not spinning) hands the core to the collector's
			// connection reader; oversleep shows up in lateUs.
			time.Sleep(due.Sub(now))
			now = time.Now()
		}
		lateUs = append(lateUs, us(now.Sub(due)))
		id, seq := sn.ids[i%len(sn.ids)], st.base+1+uint32(i/len(sn.ids))
		st.fill(sn, id, seq)
		err = sn.clients[st.tgt.route(id)].Send(&sn.rep)
		if i%visibleEvery == 0 && err == nil {
			probes <- probe{id, seq, due}
		}
	}
	close(probes)
	if werr := <-watched; err == nil {
		err = werr
	}
	// Seqs under the other senders' ids stay where they were: nothing
	// else runs on this storm after the probe.
	return visibleUs, lateUs, err
}

func prepareIngest(e *env) (*prepared, error) {
	reports, err := buildReports(e)
	if err != nil {
		return nil, err
	}
	tgt, err := singleCollector(e.sz.stormKeep)
	if err != nil {
		return nil, err
	}
	st, err := newStorm(e, reports, tgt)
	if err != nil {
		return nil, err
	}
	return &prepared{measure: st.measure, close: st.close}, nil
}
