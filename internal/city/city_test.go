package city

import (
	"reflect"
	"testing"
	"time"
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

// TestDecodedIDsAreFleetIDs scores the §8 decodes of a reference-shaped
// city (8 readers, 200 vehicles, 8 parked) against the simulator's
// truth: every id a reader reports decoded must belong to an equipped
// vehicle or a parked device. A frame that passes its CRC with the
// wrong id is named, not forgiven.
func TestDecodedIDsAreFleetIDs(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		s, err := NewSim(Config{Readers: 8, Vehicles: 200, Parked: 8, Duration: 10 * time.Second, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		fleet := make(map[uint64]bool)
		for _, v := range s.vehicles {
			if v.dev != nil {
				fleet[v.dev.ID()] = true
			}
		}
		for _, d := range s.parked {
			fleet[d.ID()] = true
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Decoded) == 0 {
			t.Fatalf("seed %d: no id decoded", seed)
		}
		for _, d := range res.Decoded {
			if !fleet[d.ID] {
				t.Errorf("seed %d: decoded id %#x (CFO %.1f kHz) belongs to no vehicle or parked device", seed, d.ID, d.FreqHz/1e3)
			}
		}
	}
}

// TestClaimDisjoint: the §9 CSMA claim step must hand each transponder
// to at most one reader per epoch — that exclusivity is what makes the
// concurrent measurement fan-out race-free.
func TestClaimDisjoint(t *testing.T) {
	s, err := NewSim(Config{Readers: 8, Vehicles: 120, Parked: 6, Duration: time.Second, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 5; tick++ {
		s.step(2 * time.Second)
		claims := s.claimMask(nil)
		seen := make(map[uint64]int)
		for ri, devs := range claims {
			for _, d := range devs {
				if prev, dup := seen[d.ID()]; dup {
					t.Fatalf("tick %d: device %#x claimed by readers %d and %d",
						tick, d.ID(), prev+1, ri+1)
				}
				seen[d.ID()] = ri
			}
		}
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
		{Readers: 2, Duration: time.Millisecond}, // < epoch
	}
	for i, cfg := range bad {
		if _, err := NewSim(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := NewSim(Config{Readers: 5, Vehicles: 10}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}
