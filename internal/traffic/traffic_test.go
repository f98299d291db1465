package traffic

import (
	"math/rand"
	"testing"
	"time"

	"caraoke/internal/geom"
)

// Occupied reports spot i's state.
func (ps *ParkingStrip) Occupied(i int) bool {
	return i >= 0 && i < ps.NumSpots && ps.occupied[i]
}

func TestLightTimingPhases(t *testing.T) {
	lt := LightTiming{Green0: 15 * time.Second, Green1: 45 * time.Second, Yellow: 3 * time.Second}
	if lt.Cycle() != 66*time.Second {
		t.Fatalf("cycle = %v", lt.Cycle())
	}
	cases := []struct {
		at     time.Duration
		s0, s1 Phase
	}{
		{0, Green, Red},
		{14 * time.Second, Green, Red},
		{16 * time.Second, Yellow, Red},
		{20 * time.Second, Red, Green},
		{62 * time.Second, Red, Green},
		{64 * time.Second, Red, Yellow},
		{66 * time.Second, Green, Red}, // wraps
	}
	for _, c := range cases {
		s0, s1 := lt.PhaseAt(c.at)
		if s0 != c.s0 || s1 != c.s1 {
			t.Errorf("t=%v: phases %v/%v, want %v/%v", c.at, s0, s1, c.s0, c.s1)
		}
	}
	var zero LightTiming
	if s0, s1 := zero.PhaseAt(0); s0 != Red || s1 != Red {
		t.Error("zero timing should fail safe to all-red")
	}
}

func TestIntersectionQueueBuildsOnRedClearsOnGreen(t *testing.T) {
	cfg := DefaultIntersectionConfig()
	cfg.Approaches[1].ArrivalRate = 0.5 // busy street
	ix, err := NewIntersection(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	dt := 100 * time.Millisecond
	maxDuringRed, minAfterGreen := 0, 1<<30
	// Run three full cycles, tracking street 1's queue near the line.
	for ix.Now() < 3*cfg.Timing.Cycle() {
		ix.Step(dt)
		_, p1 := cfg.Timing.PhaseAt(ix.Now())
		n := ix.CountNear(1, 30, false)
		if p1 == Red && n > maxDuringRed {
			maxDuringRed = n
		}
		// Sample late in green: queue should have discharged.
		inCycle := ix.Now() % cfg.Timing.Cycle()
		greenEnd := cfg.Timing.Green0 + cfg.Timing.Yellow + cfg.Timing.Green1
		if inCycle > greenEnd-2*time.Second && inCycle < greenEnd && n < minAfterGreen {
			minAfterGreen = n
		}
	}
	if maxDuringRed < 3 {
		t.Errorf("queue peaked at %d during red; expected a backlog", maxDuringRed)
	}
	if minAfterGreen >= maxDuringRed {
		t.Errorf("queue did not clear: min after green %d, max during red %d", minAfterGreen, maxDuringRed)
	}
}

func TestIntersectionCarsStopAtRed(t *testing.T) {
	cfg := DefaultIntersectionConfig()
	cfg.Approaches[0].ArrivalRate = 0.2
	cfg.Approaches[1].ArrivalRate = 0
	// Permanent red for street 0: give street 1 an enormous green.
	cfg.Timing = LightTiming{Green0: 1 * time.Millisecond, Green1: time.Hour, Yellow: time.Millisecond}
	ix, err := NewIntersection(cfg, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	for ix.Now() < 2*time.Minute {
		ix.Step(100 * time.Millisecond)
	}
	for _, c := range ix.cars {
		if c.Street == 0 && c.S < -2 {
			t.Fatalf("car crossed the stop line on red (S=%.1f)", c.S)
		}
	}
	// Queued cars must keep their spacing.
	for _, a := range ix.cars {
		for _, b := range ix.cars {
			if a != b && a.Street == 0 && b.Street == 0 {
				if d := a.S - b.S; d > 0 && d < cfg.MinGap*0.7 {
					t.Fatalf("cars %.1f m apart, min gap %.1f", d, cfg.MinGap)
				}
			}
		}
	}
}

func TestIntersectionTransponderFraction(t *testing.T) {
	cfg := DefaultIntersectionConfig()
	cfg.TransponderFrac = 0
	ix, err := NewIntersection(cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for ix.Now() < time.Minute {
		ix.Step(100 * time.Millisecond)
	}
	if got := ix.CountNear(1, 1e6, true); got != 0 {
		t.Errorf("%d equipped cars with fraction 0", got)
	}
	if ix.CountNear(1, 1e6, false) == 0 {
		t.Error("no cars at all spawned")
	}
	if len(ix.DevicesNear(1, 1e6)) != 0 {
		t.Error("devices returned despite fraction 0")
	}
}

func TestIntersectionConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bad := DefaultIntersectionConfig()
	bad.TransponderFrac = 2
	if _, err := NewIntersection(bad, rng); err == nil {
		t.Error("fraction > 1 accepted")
	}
	bad = DefaultIntersectionConfig()
	bad.Timing = LightTiming{}
	if _, err := NewIntersection(bad, rng); err == nil {
		t.Error("zero cycle accepted")
	}
	bad = DefaultIntersectionConfig()
	bad.MinGap = 0
	if _, err := NewIntersection(bad, rng); err == nil {
		t.Error("zero gap accepted")
	}
}

func TestParkingStrip(t *testing.T) {
	ps, err := NewParkingStrip(geom.V(0, -4, 0), geom.V(1, 0, 0), 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	if c := ps.SpotCenter(3); c.Dist(geom.V(18, -4, 0)) > 1e-9 {
		t.Errorf("spot 3 center %v", c)
	}
	if err := ps.Park(2); err != nil {
		t.Fatal(err)
	}
	if err := ps.Park(2); err == nil {
		t.Error("double park accepted")
	}
	if !ps.Occupied(2) || ps.Occupied(3) {
		t.Error("occupancy wrong")
	}
	if err := ps.Park(99); err == nil {
		t.Error("out-of-range park accepted")
	}
	// Nearest-spot mapping with a localization-sized error.
	spot, d := ps.NearestSpot(geom.P(12.8, -3.2))
	if spot != 2 || d > 2 {
		t.Errorf("nearest spot %d (d=%.2f), want 2", spot, d)
	}
}

func TestParkingStripValidation(t *testing.T) {
	if _, err := NewParkingStrip(geom.Vec3{}, geom.Vec3{}, 6, 6); err == nil {
		t.Error("zero direction accepted")
	}
	if _, err := NewParkingStrip(geom.Vec3{}, geom.V(1, 0, 0), 0, 6); err == nil {
		t.Error("zero spot length accepted")
	}
	if _, err := NewParkingStrip(geom.Vec3{}, geom.V(1, 0, 0), 6, 0); err == nil {
		t.Error("zero spots accepted")
	}
}
