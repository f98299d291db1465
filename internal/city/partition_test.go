package city

// Partitioned-collector harness tests: the partition-count invariance
// contract (same seeded city, any partition count, identical merged
// query answers) and the deterministic partition-kill failover.

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"caraoke/internal/cluster"
	"caraoke/internal/collector"
)

// invarianceConfig is a city big enough to spread readers over several
// partitions and decode enough cars to make the query plane non-trivial.
func invarianceConfig() Config {
	return Config{
		Readers:     8,
		Vehicles:    30,
		Parked:      6,
		Duration:    6 * time.Second,
		Seed:        7,
		DecodeEvery: 2,
	}
}

// queryFingerprint canonicalizes every service answer the run's
// directory gives: find-my-car per decoded id, decoded-id and
// per-reader sighting lookups per decoded CFO, a speed check per
// decoded CFO through the run's own speed service (at 500 Hz and 1 h,
// where Result.Speeds asks at 3 kHz), and the parking sessions. Two
// runs answer identically iff their fingerprints are byte-equal; times
// print as UnixNano so wire round-trips (which drop the zone) cannot
// alias a real difference.
func queryFingerprint(t *testing.T, res *Result) string {
	t.Helper()
	dir := res.Directory()
	var b strings.Builder
	for _, d := range res.Decoded {
		if sgt, ok := dir.FindCar(d.ID); ok {
			fmt.Fprintf(&b, "car %#x: reader %d at %d freq %.6f\n", d.ID, sgt.ReaderID, sgt.Seen.UnixNano(), sgt.FreqHz)
		} else {
			fmt.Fprintf(&b, "car %#x: not found\n", d.ID)
		}
	}
	const tol = 500.0
	for _, d := range res.Decoded {
		fmt.Fprintf(&b, "cfo %.6f: id %#x\n", d.FreqHz, dir.DecodedIDAt(d.FreqHz, tol))
		sightings := dir.SightingsByCFO(d.FreqHz, tol)
		ids := make([]uint32, 0, len(sightings))
		for id := range sightings {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			s := sightings[id]
			fmt.Fprintf(&b, "  reader %d at %d freq %.6f\n", id, s.Seen.UnixNano(), s.FreqHz)
		}
		v, over, err := res.Speed.Check(d.FreqHz, tol, time.Hour, res.End)
		if err != nil {
			fmt.Fprintf(&b, "  speed: err %v\n", err)
		} else {
			fmt.Fprintf(&b, "  speed: %.6f m/s over=%v from=%d to=%d at=%d id=%#x\n",
				v.SpeedMPS, over, v.From, v.To, v.At.UnixNano(), v.DecodedID)
		}
	}
	for _, ses := range res.Parking.Sessions() {
		fmt.Fprintf(&b, "spot %d: %#x since %d\n", ses.Spot, ses.ID, ses.Since.UnixNano())
	}
	return b.String()
}

// TestPartitionCountInvariance is the collector tier's correctness
// contract: the same seeded city run against the default tier and
// against one, two, and four partitions must produce identical run
// statistics, speed answers and scores and answer every directory query
// identically — including speed checks, whose sighting pairs may
// straddle partitions. Measurement sits upstream of the wire, so a run
// with wire faults alone (drops and kills, no churn or drift) scores
// the §5 counts and §8 decodes the clean run scores. Its §7 and parking
// scores may move: they are read off the delivered reports, downstream
// of the wire.
func TestPartitionCountInvariance(t *testing.T) {
	base, err := Run(invarianceConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d := base.Score.Decode; d.Decodes == 0 || len(d.Wrong) > 0 {
		t.Fatalf("decode score %+v: want decodes, every one a claimed vehicle or parked device", d)
	}
	if base.Store == nil || base.Store != base.Cluster.Partition(0).Store {
		t.Fatal("the default tier should be one partition whose store is Result.Store")
	}
	want := queryFingerprint(t, base)
	if len(base.Decoded) == 0 || len(base.Speeds) == 0 {
		t.Fatalf("%d cars decoded, %d speed answers — the invariance check is vacuous", len(base.Decoded), len(base.Speeds))
	}
	for _, parts := range []int{1, 2, 4} {
		cfg := invarianceConfig()
		cfg.Partitions = parts
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("partitions=%d: %v", parts, err)
		}
		if got := res.Cluster.NumPartitions(); got != parts {
			t.Fatalf("partitions=%d: tier has %d partitions", parts, got)
		}
		// Result.Store is set exactly when one partition's store holds
		// the whole run.
		var wantStore *collector.Store
		if parts == 1 {
			wantStore = res.Cluster.Partition(0).Store
		}
		if res.Store != wantStore {
			t.Fatalf("partitions=%d: Result.Store = %p, want %p", parts, res.Store, wantStore)
		}
		if !reflect.DeepEqual(res.PerIntersection, base.PerIntersection) {
			t.Errorf("partitions=%d: per-intersection stats diverge", parts)
		}
		if !reflect.DeepEqual(res.Decoded, base.Decoded) {
			t.Errorf("partitions=%d: decoded sets diverge: %v vs %v", parts, res.Decoded, base.Decoded)
		}
		if !reflect.DeepEqual(res.ParkedSpots, base.ParkedSpots) {
			t.Errorf("partitions=%d: parked spots diverge", parts)
		}
		if !reflect.DeepEqual(res.Speeds, base.Speeds) {
			t.Errorf("partitions=%d: speed answers diverge:\n%+v\n%+v", parts, res.Speeds, base.Speeds)
		}
		if !reflect.DeepEqual(res.Score, base.Score) {
			t.Errorf("partitions=%d: scores diverge:\n%+v\n%+v", parts, res.Score, base.Score)
		}
		if got := queryFingerprint(t, res); got != want {
			t.Errorf("partitions=%d: merged query answers diverge from the default tier:\n--- default\n%s--- partitions=%d\n%s", parts, want, parts, got)
		}
		if parts == 4 {
			spread := 0
			for i := 0; i < parts; i++ {
				if res.Cluster.ReadersOn(i) > 0 {
					spread++
				}
			}
			if spread < 2 {
				t.Errorf("all readers homed on one of %d partitions — the merge path went unexercised", parts)
			}
		}
	}

	// The default tier and an explicit single partition are one code
	// path under injected faults too: same loss, redelivery, dedupe and
	// churn accounting, reader by reader.
	chaos := invarianceConfig()
	chaos.Chaos = Chaos{DropRate: 0.15, KillEvery: 3, ChurnRate: 0.2}
	def, err := Run(chaos)
	if err != nil {
		t.Fatal(err)
	}
	chaos.Partitions = 1
	one, err := Run(chaos)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def.Uplinks, one.Uplinks) || len(def.Uplinks) == 0 {
		t.Errorf("chaos accounting differs between the default tier and partitions=1:\n%+v\n%+v", def.Uplinks, one.Uplinks)
	}

	wire := invarianceConfig()
	wire.Chaos = Chaos{DropRate: 0.15, KillEvery: 3}
	faulted, err := Run(wire)
	if err != nil {
		t.Fatal(err)
	}
	hit := 0
	for _, u := range faulted.Uplinks {
		hit += u.FramesLost + u.Kills
	}
	if hit == 0 {
		t.Fatal("the wire-fault run injected nothing: the score check is vacuous")
	}
	if !reflect.DeepEqual(faulted.Score.Count, base.Score.Count) || !reflect.DeepEqual(faulted.Score.Decode, base.Score.Decode) {
		t.Errorf("wire faults moved the §5/§8 score:\nfaulted: %+v %+v\nclean:   %+v %+v",
			faulted.Score.Count, faulted.Score.Decode, base.Score.Count, base.Score.Decode)
	}
}

// failoverConfig arms a partition kill on the partition owning the
// first intersection's cell, so readers 1 and 2 are guaranteed to be
// homed on the doomed partition. It also returns that partition's
// original population, read off the ring.
func failoverConfig(t *testing.T) (Config, int, []uint32) {
	t.Helper()
	ring, err := cluster.NewRing(2)
	if err != nil {
		t.Fatal(err)
	}
	doomed := ring.Owner("cell-0-0")
	cfg := testConfig() // 3 readers: 1,2 on cell-0-0; 3 on cell-1-0
	cfg.Partitions = 2
	cfg.Failover = cluster.FailoverPlan{Partition: doomed, AtSeq: 3}
	sim, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var homed []uint32
	for _, p := range sim.posts {
		if ring.Owner(sim.cellOf(p)) == doomed {
			homed = append(homed, p.rd.ID)
		}
	}
	return cfg, doomed, homed
}

// TestPartitionFailoverDeterministic kills a partition at seq 3 of 6
// and asserts the deterministic recovery: the dead partition ends the
// run owning exactly seqs 1..3 from each of its readers, the readers
// rehome to the ring successor carrying 4..6, each rehomed client paid
// exactly one reconnect and one redelivery, and a second run reproduces
// every counter bit-for-bit.
func TestPartitionFailoverDeterministic(t *testing.T) {
	cfg, doomed, wantRehomed := failoverConfig(t)
	run := func(cfg Config) *Result {
		t.Helper()
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run(cfg)
	epochs := res.Epochs
	fo := res.Failover
	if fo == nil || !fo.Happened || fo.Partition != doomed {
		t.Fatalf("failover summary = %+v, want a realized kill of partition %d", fo, doomed)
	}
	// Every reader homed on the doomed partition outlives the cut (all
	// produce 6 > 3 seqs), so the rehomed set is exactly the doomed
	// partition's original population.
	if !reflect.DeepEqual(fo.Rehomed, wantRehomed) {
		t.Fatalf("rehomed = %v, want %v", fo.Rehomed, wantRehomed)
	}
	if len(wantRehomed) == 0 {
		t.Fatal("no reader was homed on the doomed partition; test proves nothing")
	}
	dead := res.Cluster.Partition(doomed).Store
	cut := cfg.Failover.AtSeq
	for _, id := range fo.Rehomed {
		if got := fo.DeadSeqs[id]; got != cut {
			t.Errorf("reader %d: dead partition owns seqs 1..%d, want 1..%d", id, got, cut)
		}
		if got := dead.SeqsReceived(id); got != int(cut) {
			t.Errorf("reader %d: dead store landed %d seqs, want %d", id, got, cut)
		}
		succ := res.Cluster.HomeOf(id)
		if succ == doomed {
			t.Fatalf("reader %d still homed on the dead partition", id)
		}
		if got := res.Cluster.Partition(succ).Store.SeqsReceived(id); got != epochs-int(cut) {
			t.Errorf("reader %d: successor landed %d seqs, want %d", id, got, epochs-int(cut))
		}
	}
	if fo.Reconnects != len(fo.Rehomed) || fo.Redelivered != len(fo.Rehomed) {
		t.Errorf("recovery cost = %d reconnects / %d redeliveries, want %d each (one per rehomed reader)",
			fo.Reconnects, fo.Redelivered, len(fo.Rehomed))
	}

	again := run(cfg)
	if !reflect.DeepEqual(again.Failover, fo) {
		t.Errorf("failover counters diverge across identical seeds:\n%+v\n%+v", fo, again.Failover)
	}
	if !reflect.DeepEqual(again.PerIntersection, res.PerIntersection) {
		t.Errorf("per-intersection stats diverge across identical seeds")
	}

	lockCfg := cfg
	lockCfg.lockstep = true
	lock := run(lockCfg)
	if !reflect.DeepEqual(lock.Failover, fo) {
		t.Errorf("failover counters differ across run modes:\npipelined: %+v\nlockstep:  %+v", fo, lock.Failover)
	}
}

// TestPartitionFailoverUnderChaos combines the partition kill with the
// full failure model — frame drops, connection kills, churn, drift —
// and asserts the whole delivery and recovery accounting is still a
// pure function of the seed, in both run modes. This is the test that
// exercises the per-partition gap-tolerant drain with seq-localized
// loss budgets.
func TestPartitionFailoverUnderChaos(t *testing.T) {
	ring, err := cluster.NewRing(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig()
	cfg.Partitions = 2
	cfg.Failover = cluster.FailoverPlan{Partition: ring.Owner("cell-0-0"), AtSeq: 2}
	run := func(cfg Config) *Result {
		t.Helper()
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(cfg), run(cfg)
	if !reflect.DeepEqual(a.Uplinks, b.Uplinks) {
		t.Errorf("uplink accounting diverges across identical seeds:\n%+v\n%+v", a.Uplinks, b.Uplinks)
	}
	if !reflect.DeepEqual(a.Failover, b.Failover) {
		t.Errorf("failover counters diverge across identical seeds:\n%+v\n%+v", a.Failover, b.Failover)
	}
	if !reflect.DeepEqual(a.PerIntersection, b.PerIntersection) {
		t.Errorf("per-intersection stats diverge across identical seeds")
	}
	faultsSeen := 0
	for _, u := range a.Uplinks {
		faultsSeen += u.FramesLost + u.Kills + u.OfflineEpochs
	}
	if faultsSeen == 0 {
		t.Error("the chaos config injected nothing — the test is vacuous")
	}

	lockCfg := cfg
	lockCfg.lockstep = true
	lock := run(lockCfg)
	if !reflect.DeepEqual(lock.Uplinks, a.Uplinks) {
		t.Errorf("chaos accounting differs across run modes:\npipelined: %+v\nlockstep:  %+v", a.Uplinks, lock.Uplinks)
	}
	if !reflect.DeepEqual(lock.Failover, a.Failover) {
		t.Errorf("failover counters differ across run modes:\npipelined: %+v\nlockstep:  %+v", a.Failover, lock.Failover)
	}
}
