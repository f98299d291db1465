package cluster

import (
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"caraoke/internal/collector"
	"caraoke/internal/geom"
	"caraoke/internal/telemetry"
)

func at(sec int) time.Time {
	return time.Date(2015, 8, 17, 8, 0, sec, 0, time.UTC)
}

// TestRingDeterministicAndBalanced: the ring is a pure function of its
// shape, and vnodes spread cells over partitions without a runaway
// winner.
func TestRingDeterministicAndBalanced(t *testing.T) {
	a, err := NewRing(4)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewRing(4)
	counts := make([]int, 4)
	const cells = 2000
	for i := 0; i < cells; i++ {
		key := fmt.Sprintf("cell-%d-%d", i%50, i/50)
		pa, pb := a.Owner(key), b.Owner(key)
		if pa != pb {
			t.Fatalf("rings disagree on %q: %d vs %d", key, pa, pb)
		}
		counts[pa]++
	}
	for p, n := range counts {
		frac := float64(n) / cells
		if frac < 0.05 || frac > 0.55 {
			t.Fatalf("partition %d owns %.0f%% of cells — ring badly unbalanced: %v", p, 100*frac, counts)
		}
	}
}

// TestRingFailoverRemap: killing a partition moves exactly its keys,
// each to a live partition; every other key keeps its owner — the
// consistent-hashing property failover relies on.
func TestRingFailoverRemap(t *testing.T) {
	r, err := NewRing(4)
	if err != nil {
		t.Fatal(err)
	}
	const dead = 2
	isDead := func(p int) bool { return p == dead }
	moved := 0
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("cell-%d", i)
		before := r.Owner(key)
		after := r.OwnerSkipping(key, isDead)
		if after == dead {
			t.Fatalf("key %q still routed to dead partition", key)
		}
		if before != dead && after != before {
			t.Fatalf("key %q not owned by dead partition moved %d → %d", key, before, after)
		}
		if before == dead {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no key was owned by the dead partition; test proves nothing")
	}
}

// dialer builds the uplink dial function a reader uses against a
// cluster: resolve the current home, dial, guard.
func dialer(c *Cluster, id uint32) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", c.AddrFor(id), time.Second)
		if err != nil {
			return nil, err
		}
		return c.GuardConn(id, conn), nil
	}
}

// sameSighting compares sightings with time.Time.Equal: the cluster
// side round-trips timestamps through the wire (decoded as
// time.Unix), so == would compare location pointers.
func sameSighting(a, b collector.CarSighting) bool {
	return a.ReaderID == b.ReaderID && a.Seen.Equal(b.Seen) && a.FreqHz == b.FreqHz
}

func clusterReport(readerID uint32, seq int) *telemetry.Report {
	return &telemetry.Report{
		ReaderID:  readerID,
		Seq:       uint32(seq),
		Timestamp: at(seq),
		Count:     seq,
		Spikes: []telemetry.SpikeRecord{
			{FreqHz: 1e3 * float64(readerID), DecodedID: uint64(readerID)<<8 | uint64(seq%3)},
		},
	}
}

// TestClusterMatchesGlobalStore: the same report set routed through a
// 3-partition cluster and added to one global store must answer every
// Directory query identically — the partition-invariance contract at
// the unit level.
func TestClusterMatchesGlobalStore(t *testing.T) {
	c, err := New(Config{Partitions: 3, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	global := collector.NewStore(64)

	const readers, seqs = 9, 12
	want := make(map[uint32]uint32)
	clients := make(map[uint32]*collector.Client)
	for id := uint32(1); id <= readers; id++ {
		c.Register(id, fmt.Sprintf("cell-%d", (id-1)/2)) // co-located pairs
		cl, err := collector.DialFunc(dialer(c, id))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		clients[id] = cl
		want[id] = seqs
	}
	// Distinct homes must exist or the test proves nothing.
	homes := make(map[int]bool)
	for id := uint32(1); id <= readers; id++ {
		homes[c.HomeOf(id)] = true
	}
	if len(homes) < 2 {
		t.Fatalf("all readers landed on one partition; pick different cells")
	}
	for seq := 1; seq <= seqs; seq++ {
		for id := uint32(1); id <= readers; id++ {
			rep := clusterReport(id, seq)
			if err := clients[id].Send(rep); err != nil {
				t.Fatal(err)
			}
			global.Add(clusterReport(id, seq))
		}
	}
	if err := c.WaitHighWater(want, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	for id := uint32(1); id <= readers; id++ {
		for tag := uint64(0); tag < 3; tag++ {
			car := uint64(id)<<8 | tag
			gs, gok := global.FindCar(car)
			cs, cok := c.FindCar(car)
			if gok != cok || (gok && !sameSighting(gs, cs)) {
				t.Fatalf("FindCar(%#x): cluster %+v/%v, global %+v/%v", car, cs, cok, gs, gok)
			}
		}
		if got := c.SeqsReceived(id); got != seqs {
			t.Fatalf("reader %d: cluster received %d of %d", id, got, seqs)
		}
	}
	for _, freq := range []float64{1e3, 4e3, 9e3} {
		if g, cl := global.DecodedIDAt(freq, 500), c.DecodedIDAt(freq, 500); g != cl {
			t.Fatalf("DecodedIDAt(%g): cluster %#x, global %#x", freq, cl, g)
		}
		g, cl := global.SightingsByCFO(freq, 500), c.SightingsByCFO(freq, 500)
		if len(g) != len(cl) {
			t.Fatalf("SightingsByCFO(%g): cluster %v, global %v", freq, cl, g)
		}
		for id, gs := range g {
			if cs, ok := cl[id]; !ok || !sameSighting(gs, cs) {
				t.Fatalf("SightingsByCFO(%g) reader %d: cluster %+v/%v, global %+v", freq, id, cs, ok, gs)
			}
		}
	}
}

// TestCrossPartitionSpeedPair: a speed check whose two sightings landed
// on different collectors — the cross-partition merge case the query
// router exists for. The SpeedService runs unchanged over the cluster
// Directory; the test asserts the violation's reader pair really is
// homed on two distinct partitions.
func TestCrossPartitionSpeedPair(t *testing.T) {
	c, err := New(Config{Partitions: 2, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	// Find one cell per partition so the two readers are guaranteed to
	// live apart.
	ring, _ := NewRing(2)
	cellOn := map[int]string{}
	for i := 0; len(cellOn) < 2 && i < 1000; i++ {
		cell := fmt.Sprintf("speed-cell-%d", i)
		if _, ok := cellOn[ring.Owner(cell)]; !ok {
			cellOn[ring.Owner(cell)] = cell
		}
	}
	c.Register(1, cellOn[0])
	c.Register(2, cellOn[1])

	const freq = 5e3
	send := func(id uint32, seq int, decoded uint64) {
		t.Helper()
		cl, err := collector.DialFunc(dialer(c, id))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		rep := &telemetry.Report{
			ReaderID: id, Seq: uint32(seq), Timestamp: at(seq), Count: 1,
			Spikes: []telemetry.SpikeRecord{{FreqHz: freq + float64(id), DecodedID: decoded}},
		}
		if err := cl.Send(rep); err != nil {
			t.Fatal(err)
		}
	}
	send(1, 1, 0x111) // the car at reader 1, t=1s
	send(2, 3, 0x111) // the same car at reader 2, t=3s, 60 m away
	if err := c.WaitHighWater(map[uint32]uint32{1: 1, 2: 3}, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	svc := collector.NewSpeedService(c, 20)
	svc.RegisterReader(1, geom.P(0, 0))
	svc.RegisterReader(2, geom.P(60, 0))
	v, over, err := svc.Check(freq, 50, time.Hour, at(10))
	if err != nil {
		t.Fatal(err)
	}
	if v.From != 1 || v.To != 2 {
		t.Fatalf("speed pair = %d→%d, want 1→2", v.From, v.To)
	}
	if c.HomeOf(v.From) == c.HomeOf(v.To) {
		t.Fatalf("speed pair homed on one partition %d — the cross-partition case went unexercised", c.HomeOf(v.From))
	}
	if want := 30.0; v.SpeedMPS < want-1 || v.SpeedMPS > want+1 {
		t.Fatalf("speed = %.2f m/s, want ≈ %.0f (60 m in 2 s)", v.SpeedMPS, want)
	}
	if !over {
		t.Fatal("30 m/s against a 20 m/s limit should flag a violation")
	}
	if v.DecodedID != 0x111 {
		t.Fatalf("violation carries id %#x, want 0x111", v.DecodedID)
	}
}

// TestClusterFailoverCut: killing a partition at seq K leaves it owning
// exactly seqs 1..K from each of its readers, reroutes them to the ring
// successor carrying K+1.., counts one reconnect+redelivery on each
// rerouted client, and drops the dead partition from the query plane.
func TestClusterFailoverCut(t *testing.T) {
	c, err := New(Config{Partitions: 2, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	// Two readers on distinct cells; find one on each partition.
	c.Register(1, "cell-a")
	c.Register(2, "cell-c") // cell-a→0/cell-c→1 under the default ring; assert below
	if c.HomeOf(1) == c.HomeOf(2) {
		t.Fatalf("readers share partition %d; pick different cells", c.HomeOf(1))
	}
	doomed := c.HomeOf(1)
	surv := c.HomeOf(2)

	const cutAt, total = 5, 12
	if err := c.SetFailover(FailoverPlan{Partition: doomed, AtSeq: cutAt}); err != nil {
		t.Fatal(err)
	}

	clients := map[uint32]*collector.Client{}
	for _, id := range []uint32{1, 2} {
		cl, err := collector.DialFunc(dialer(c, id))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		// Keep the cut retry fast; one redial succeeds immediately.
		cl.Retry = collector.RetryPolicy{Attempts: 3, BackoffMin: time.Millisecond, BackoffMax: 2 * time.Millisecond}
		clients[id] = cl
	}
	for seq := 1; seq <= total; seq++ {
		for _, id := range []uint32{1, 2} {
			if err := clients[id].Send(clusterReport(id, seq)); err != nil {
				t.Fatalf("reader %d seq %d: %v", id, seq, err)
			}
		}
	}
	if err := c.WaitHighWater(map[uint32]uint32{1: total, 2: total}, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	if got := c.Rehomed(); !reflect.DeepEqual(got, []uint32{1}) {
		t.Fatalf("rehomed readers = %v, want [1]", got)
	}
	if killed, ok := c.KilledPartition(); !ok || killed != doomed {
		t.Fatalf("KilledPartition = %d/%v, want %d/true", killed, ok, doomed)
	}
	if got := c.HomeOf(1); got != surv {
		t.Fatalf("reader 1 rehomed to %d, want successor %d", got, surv)
	}
	// The dead partition froze at the cut; the successor holds the rest.
	if got := c.Partition(doomed).Store.SeqsReceived(1); got != cutAt {
		t.Fatalf("dead partition holds %d seqs from reader 1, want %d", got, cutAt)
	}
	if got := c.Partition(surv).Store.SeqsReceived(1); got != total-cutAt {
		t.Fatalf("successor holds %d seqs from reader 1, want %d", got, total-cutAt)
	}
	if got := c.Partition(surv).Store.SeqsReceived(2); got != total {
		t.Fatalf("unaffected reader 2 delivered %d of %d to its home", got, total)
	}
	split := c.OwnershipSplit(1, total)
	wantSplit := []SeqRange{{Part: doomed, Lo: 1, Hi: cutAt}, {Part: surv, Lo: cutAt + 1, Hi: total}}
	if !reflect.DeepEqual(split, wantSplit) {
		t.Fatalf("OwnershipSplit = %+v, want %+v", split, wantSplit)
	}
	st := clients[1].Stats()
	if st.Reconnects != 1 || st.Redelivered != 1 || st.Dropped != 0 {
		t.Fatalf("rerouted client stats = %+v, want 1 reconnect, 1 redelivered, 0 dropped", st)
	}
	if st2 := clients[2].Stats(); st2.Reconnects != 0 || st2.Redelivered != 0 {
		t.Fatalf("unaffected client reconnected: %+v", st2)
	}

	// Query plane: the dead partition's sightings are gone; reader 1's
	// post-cut sightings answer from the successor.
	sgt, ok := c.FindCar(uint64(1)<<8 | uint64(total%3))
	if !ok {
		t.Fatal("post-cut sighting of reader 1's car not found")
	}
	if sgt.ReaderID != 1 || !sgt.Seen.Equal(at(total)) {
		t.Fatalf("FindCar answered %+v, want reader 1 at %v", sgt, at(total))
	}
	// A car only ever sighted before the cut is lost with the partition.
	preCutOnly := uint64(1)<<8 | uint64(1) // seqs ≡ 1 mod 3: 1,4 < cut, 7,10 ≥... recompute below
	_ = preCutOnly
	for tag := uint64(0); tag < 3; tag++ {
		car := uint64(1)<<8 | tag
		lastSeq := 0
		for seq := 1; seq <= total; seq++ {
			if uint64(seq%3) == tag {
				lastSeq = seq
			}
		}
		sgt, ok := c.FindCar(car)
		if lastSeq > cutAt {
			if !ok || !sgt.Seen.Equal(at(lastSeq)) {
				t.Fatalf("car %#x (last seq %d, post-cut): got %+v/%v", car, lastSeq, sgt, ok)
			}
		} else if ok {
			t.Fatalf("car %#x last sighted pre-cut (seq %d) should be lost with the partition, got %+v", car, lastSeq, sgt)
		}
	}
}
