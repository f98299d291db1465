package city

import (
	"math"
	"reflect"
	"testing"
	"time"

	"caraoke/internal/cluster"
	"caraoke/internal/transponder"
)

// testConfig is small enough for -race CI yet still exercises the
// concurrent multi-reader fan-out (3 readers on 2 intersections).
func testConfig() Config {
	return Config{
		Readers:     3,
		Vehicles:    24,
		Duration:    6 * time.Second,
		Seed:        42,
		DecodeEvery: -1, // decoding has its own test below
	}
}

// TestCityDeterministic is the fixed-seed ⇒ identical-end-state
// regression: two full runs, concurrent readers and real TCP uplinks
// included, must agree on every per-intersection statistic.
func TestCityDeterministic(t *testing.T) {
	run := func() *Result {
		t.Helper()
		res, err := Run(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalReports != b.TotalReports || a.Epochs != b.Epochs {
		t.Fatalf("run sizes diverge: %d/%d reports, %d/%d epochs",
			a.TotalReports, b.TotalReports, a.Epochs, b.Epochs)
	}
	if !reflect.DeepEqual(a.PerIntersection, b.PerIntersection) {
		t.Errorf("per-intersection stats diverge across identical seeds:\n%+v\n%+v",
			a.PerIntersection, b.PerIntersection)
	}
	if !reflect.DeepEqual(a.Decoded, b.Decoded) {
		t.Errorf("decoded sets diverge: %v vs %v", a.Decoded, b.Decoded)
	}
	if !reflect.DeepEqual(a.Score, b.Score) {
		t.Errorf("scores diverge across identical seeds:\n%+v\n%+v", a.Score, b.Score)
	}
	if a.TotalReports != a.Epochs*3 {
		t.Errorf("collector holds %d reports, want %d", a.TotalReports, a.Epochs*3)
	}
	saw := 0
	for _, ix := range a.PerIntersection {
		saw += ix.CarSeconds
	}
	if saw == 0 {
		t.Error("no reader ever counted a car — harness geometry is broken")
	}
}

// TestCityDecodesAndFindsCars runs a single low-traffic reader with
// decoding on every epoch and checks the full §8 → telemetry →
// find-my-car path end to end. Deterministic seed: if it passes once it
// always passes.
func TestCityDecodesAndFindsCars(t *testing.T) {
	res, err := Run(Config{
		Readers:      1,
		Vehicles:     6,
		Duration:     8 * time.Second,
		Seed:         7,
		DecodeEvery:  1,
		DecodeBudget: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decoded) == 0 {
		t.Fatal("no transponder decoded in 8 epochs of a 6-car scene")
	}
	for _, d := range res.Decoded {
		sgt, ok := res.Store.FindCar(d.ID)
		if !ok {
			t.Errorf("decoded id %#x not findable through the collector", d.ID)
			continue
		}
		if sgt.ReaderID != 1 {
			t.Errorf("id %#x attributed to reader %d, only reader 1 exists", d.ID, sgt.ReaderID)
		}
	}
}

// TestDecodeDoesNotPerturbCounts: §8 decoding draws its queries from a
// stream of its own, so a reader that never decodes, one that decodes
// every epoch and one that decodes every fifth count the same cars —
// the same per-intersection statistics and the same stored count of
// every report.
func TestDecodeDoesNotPerturbCounts(t *testing.T) {
	run := func(every int) *Result {
		t.Helper()
		res, err := Run(Config{Readers: 4, Vehicles: 40, Parked: 6, Duration: 8 * time.Second, Seed: 11, DecodeEvery: every})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	counts := func(res *Result) map[uint32][]int {
		out := make(map[uint32][]int)
		for _, id := range res.Store.Readers() {
			_, out[id] = res.Store.CountSeries(id, res.Start, res.End)
		}
		return out
	}
	base := run(-1)
	if len(base.Decoded) != 0 {
		t.Fatalf("DecodeEvery -1 decoded %d cars", len(base.Decoded))
	}
	want := counts(base)
	for _, every := range []int{1, 5} {
		res := run(every)
		if len(res.Decoded) == 0 {
			t.Fatalf("DecodeEvery %d decoded no car: the check is vacuous", every)
		}
		if !reflect.DeepEqual(res.PerIntersection, base.PerIntersection) {
			t.Errorf("DecodeEvery %d: per-intersection stats %+v, without decoding %+v", every, res.PerIntersection, base.PerIntersection)
		}
		if got := counts(res); !reflect.DeepEqual(got, want) {
			t.Errorf("DecodeEvery %d: stored counts %v, without decoding %v", every, got, want)
		}
	}
}

// TestClaimDisjoint holds the §9 claim step to its specification, on
// several city shapes (parked cars, unequipped vehicles) over epochs of
// a moving fleet, with every reader on and with reader 1 switched off by
// churn: every equipped vehicle or parked device within rangeM of an
// active reader's centre is claimed exactly once, by the lowest-id such
// reader, and nothing else is claimed. That exclusivity is what makes
// the concurrent measurement fan-out race-free. Each reader's claims
// come in fleet order: vehicles first, then parked cars.
func TestClaimDisjoint(t *testing.T) {
	shapes := []Config{
		{Readers: 3, Vehicles: 40, Duration: time.Second, Seed: 11},
		{Readers: 8, Vehicles: 150, Parked: 9, Duration: time.Second, Seed: 12},
		{Readers: 13, Vehicles: 400, Parked: 4, Duration: time.Second, Seed: 13, UnequippedFrac: 0.2},
		{Readers: 2, Vehicles: 0, Parked: 7, Duration: time.Second, Seed: 14},
	}
	spilled := 0 // devices in reader 1's range a later reader took under churn
	for ci, cfg := range shapes {
		s, err := NewSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// order is a device's place in the fleet, in the claim-priority
		// order Devices promises: equipped vehicles, then parked cars.
		order := make(map[*transponder.Device]int)
		for i, d := range s.world.Devices() {
			order[d] = i
		}
		churned := make([]bool, len(s.posts))
		for i := range churned {
			churned[i] = i != 0
		}
		for tick := 0; tick < 6; tick++ {
			s.world.Advance(1500 * time.Millisecond)
			devs := s.world.Devices()
			for _, active := range [][]bool{nil, churned} {
				claims := s.claimMask(devs, active)
				if len(claims) != len(s.posts) {
					t.Fatalf("shape %d tick %d: claims for %d readers, want %d", ci, tick, len(claims), len(s.posts))
				}
				owner := make(map[*transponder.Device]int)
				for ri, devs := range claims {
					last := -1
					for _, d := range devs {
						o, ok := order[d]
						if !ok {
							t.Fatalf("shape %d tick %d: reader %d claims a device outside the fleet", ci, tick, ri+1)
						}
						if o <= last {
							t.Fatalf("shape %d tick %d: reader %d claims out of fleet order", ci, tick, ri+1)
						}
						last = o
						if prev, dup := owner[d]; dup {
							t.Fatalf("shape %d tick %d: device %#x claimed by readers %d and %d",
								ci, tick, d.ID(), prev+1, ri+1)
						}
						owner[d] = ri
					}
				}
				for d := range order {
					want := -1
					for ri, p := range s.posts {
						if (active == nil || active[ri]) && d.Pos.Dist(p.rd.Center()) <= rangeM {
							want = ri
							break
						}
					}
					got, claimed := owner[d]
					switch {
					case want < 0 && claimed:
						t.Fatalf("shape %d tick %d: device %#x out of every active reader's range, claimed by reader %d",
							ci, tick, d.ID(), got+1)
					case want >= 0 && (!claimed || got != want):
						t.Fatalf("shape %d tick %d: device %#x claimed by reader %d (claimed %v), want reader %d",
							ci, tick, d.ID(), got+1, claimed, want+1)
					}
					if active != nil && claimed && d.Pos.Dist(s.posts[0].rd.Center()) <= rangeM {
						spilled++
					}
				}
			}
		}
	}
	if spilled == 0 {
		t.Error("no device fell from the switched-off reader to an overlapping one: the churn mask went untested")
	}
}

// TestCityBatchAndShardsDeterministic: batching uplinks is a wire
// change only — a run with it cranked up must match the default run's
// results exactly.
func TestCityBatchAndShardsDeterministic(t *testing.T) {
	base, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Batch = 4
	batched, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.TotalReports != batched.TotalReports {
		t.Fatalf("report counts diverge: %d vs %d", base.TotalReports, batched.TotalReports)
	}
	if !reflect.DeepEqual(base.PerIntersection, batched.PerIntersection) {
		t.Errorf("batching changed results:\nbase:    %+v\nbatched: %+v",
			base.PerIntersection, batched.PerIntersection)
	}
	if !reflect.DeepEqual(base.Decoded, batched.Decoded) {
		t.Errorf("decoded sets diverge: %v vs %v", base.Decoded, batched.Decoded)
	}
	if !reflect.DeepEqual(base.Score, batched.Score) {
		t.Errorf("batching changed the score:\nbase:    %+v\nbatched: %+v", base.Score, batched.Score)
	}
}

// TestCityRunOutlivesRetention: a run with more epochs than the
// store's keep window must still complete — the report barrier tracks
// ingestion, not retained history (regression for a spurious
// end-of-run timeout on long runs).
func TestCityRunOutlivesRetention(t *testing.T) {
	res, err := Run(Config{
		Readers:     1,
		Vehicles:    4,
		Duration:    6 * time.Second,
		Seed:        5,
		Keep:        3, // < 6 epochs
		DecodeEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalReports != 6 {
		t.Errorf("delivered %d reports, want 6", res.TotalReports)
	}
	id := res.PerIntersection[0].Readers[0]
	if ts, _ := res.Store.CountSeries(id, time.Time{}, time.Unix(1<<40, 0)); len(ts) != 3 {
		t.Errorf("store retains %d reports, keep is 3", len(ts))
	}
	// Summary statistics accumulate at measurement time, so they cover
	// the full run even though the store only retains the last Keep
	// epochs (regression: summarize used to recount trimmed history and
	// disagree with TotalReports).
	var sum int
	for _, ix := range res.PerIntersection {
		sum += ix.Reports
	}
	if sum != res.TotalReports {
		t.Errorf("per-intersection reports sum to %d, want TotalReports %d", sum, res.TotalReports)
	}
	if err := res.Store.WaitHighWater(map[uint32]uint32{id: 6}, 0); err != nil {
		t.Errorf("high-water mark did not survive trimming: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Readers: 0},
		{Readers: 2, Vehicles: -1},
		{Readers: 2, UnequippedFrac: 1.5},
		{Readers: 2, Duration: time.Millisecond},        // < epoch
		{Readers: 2, Duration: 2500 * time.Millisecond}, // not whole epochs
		{Readers: 2, DecodeBudget: -1},
		{Readers: 2, Vehicles: 0, DecodeBudget: -1}, // refused on an empty road too
		{Readers: 2, Keep: -1},
		{Readers: 2, UnequippedFrac: math.NaN()},
		{Readers: 2, Chaos: Chaos{ChurnRate: math.NaN()}},
		{Readers: 2, Chaos: Chaos{DriftPPM: math.NaN()}},
		{Readers: 2, Chaos: Chaos{DriftPPM: math.Inf(1)}},
		{Readers: 2, Chaos: Chaos{DropRate: math.NaN()}},
		{Readers: 2, Chaos: Chaos{DriftPPM: 0, ResyncEvery: 2}},                              // nothing to resync
		{Readers: 2, Failover: cluster.FailoverPlan{Partition: 3}},                           // seq 0: no cut
		{Readers: 2, Failover: cluster.FailoverPlan{AtSeq: 3}},                               // one partition: no successor
		{Readers: 2, Partitions: 2, Failover: cluster.FailoverPlan{Partition: 2, AtSeq: 3}},  // no partition 2
		{Readers: 2, Partitions: 2, Failover: cluster.FailoverPlan{Partition: -1, AtSeq: 3}}, // negative partition
	}
	for i, cfg := range bad {
		if _, err := NewSim(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	for _, cfg := range []Config{
		{Readers: 5, Vehicles: 10},
		{Readers: 5, Vehicles: 10, Partitions: 2, Failover: cluster.FailoverPlan{Partition: 1, AtSeq: 3}},
	} {
		if _, err := NewSim(cfg); err != nil {
			t.Errorf("valid config rejected: %v", err)
		}
	}
}
