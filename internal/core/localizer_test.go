package core

import (
	"math"
	"testing"

	"caraoke/internal/geom"
	"caraoke/internal/phy"
	"caraoke/internal/rfsim"
)

// trueAngle computes the ground-truth spatial angle between a pair's
// baseline and the direction to a transponder (the quantity Fig 13
// measures with a laser ranger).
func trueAngle(arr rfsim.Array, pair rfsim.Pair, pos geom.Vec3) float64 {
	r := pos.Sub(arr.Midpoint(pair))
	cosA := r.Dot(arr.Axis(pair).Unit()) / r.Norm()
	return math.Acos(cosA)
}

func TestEstimateAoASingleTransponder(t *testing.T) {
	s := newTestScene(t, 301)
	devs := s.placedDevices(1)
	spikes, err := AnalyzeCapture(s.collide(devs), s.param)
	if err != nil {
		t.Fatal(err)
	}
	if len(spikes) != 1 {
		t.Fatalf("got %d spikes, want 1", len(spikes))
	}
	aoa, err := EstimateAoA(spikes[0], s.arr, s.param.Wavelength)
	if err != nil {
		t.Fatal(err)
	}
	want := trueAngle(s.arr, aoa.Pair, devs[0].Pos)
	if errDeg := math.Abs(geom.Degrees(aoa.Alpha - want)); errDeg > 4 {
		t.Errorf("AoA error %.2f°, want ≤4° (Fig 13 average)", errDeg)
	}
	// The chosen pair must be the most broadside-looking one.
	for _, pair := range s.arr.Pairs() {
		if q := geom.BroadsideQuality(trueAngle(s.arr, pair, devs[0].Pos)); q > aoa.Quality+0.25 {
			t.Errorf("pair %v (quality %.2f) clearly better than chosen %.2f", pair, q, aoa.Quality)
		}
	}
}

func TestEstimateAoAInCollision(t *testing.T) {
	// §6's central claim: per-transponder AoA despite collisions.
	s := newTestScene(t, 302)
	devs := s.placedDevices(5)
	for i, d := range devs {
		d.CarrierHz = phy.BandLow + 150e3 + float64(i)*200e3
	}
	spikes, err := AnalyzeCapture(s.collide(devs), s.param)
	if err != nil {
		t.Fatal(err)
	}
	if len(spikes) != len(devs) {
		t.Fatalf("got %d spikes, want %d", len(spikes), len(devs))
	}
	for i, sp := range spikes {
		aoa, err := EstimateAoA(sp, s.arr, s.param.Wavelength)
		if err != nil {
			t.Fatal(err)
		}
		want := trueAngle(s.arr, aoa.Pair, devs[i].Pos)
		if errDeg := math.Abs(geom.Degrees(aoa.Alpha - want)); errDeg > 5 {
			t.Errorf("transponder %d: AoA error %.2f° despite collision", i, errDeg)
		}
	}
}

func TestEstimateAoAErrors(t *testing.T) {
	s := newTestScene(t, 303)
	spike := Spike{Channels: []complex128{1}}
	if _, err := EstimateAoA(spike, s.arr, s.param.Wavelength); err == nil {
		t.Error("channel/element mismatch accepted")
	}
	pairArr := rfsim.Array{Elements: []geom.Vec3{geom.V(-0.08, 0, 4), geom.V(0.08, 0, 4)}}
	zero := Spike{Channels: []complex128{0, 0}}
	if _, err := EstimateAoA(zero, pairArr, s.param.Wavelength); err == nil {
		t.Error("all-zero channels accepted")
	}
	one := rfsim.Array{Elements: pairArr.Elements[:1]}
	if _, err := EstimateAoA(Spike{Channels: []complex128{1}}, one, s.param.Wavelength); err == nil {
		t.Error("single-antenna array accepted")
	}
}

func TestLocalizeOnRoadTwoReaders(t *testing.T) {
	// Full §6 pipeline with two readers on opposite sides of the road.
	s := newTestScene(t, 304)
	arr2, err := rfsim.TriangleOnPole(geom.V(30, 5, 0), 3.8, geom.V(1, 0, 0), -60, s.param.Wavelength/2)
	if err != nil {
		t.Fatal(err)
	}
	region := geom.SearchRegion{XMin: 1, XMax: 45, YMin: -4.5, YMax: 4.5}
	hint := geom.P(15, 0)
	for run := 0; run < 5; run++ {
		devs := s.placedDevices(1)
		truth := devs[0].Pos

		mc1 := s.collide(devs)
		spikes1, err := AnalyzeCapture(mc1, s.param)
		if err != nil || len(spikes1) != 1 {
			t.Fatalf("reader 1 spikes: %v %d", err, len(spikes1))
		}
		cfg2 := s.cfg
		tx, err := devs[0].Reply(s.param.ReaderLO, s.param.SampleRate, 0, s.rng)
		if err != nil {
			t.Fatal(err)
		}
		mc2, err := rfsim.Capture(cfg2, arr2, []rfsim.Transmission{tx}, s.rng)
		if err != nil {
			t.Fatal(err)
		}
		spikes2, err := AnalyzeCapture(mc2, s.param)
		if err != nil || len(spikes2) != 1 {
			t.Fatalf("reader 2 spikes: %v %d", err, len(spikes2))
		}

		matches := MatchSpikesByCFO(spikes1, spikes2, 5e3)
		if len(matches) != 1 {
			t.Fatalf("matched %d spike pairs, want 1", len(matches))
		}
		aoa1, err := EstimateAoA(spikes1[matches[0][0]], s.arr, s.param.Wavelength)
		if err != nil {
			t.Fatal(err)
		}
		aoa2, err := EstimateAoA(spikes2[matches[0][1]], arr2, s.param.Wavelength)
		if err != nil {
			t.Fatal(err)
		}
		pos, err := LocalizeOnRoad(
			ReaderView{Array: s.arr, AoA: aoa1},
			ReaderView{Array: arr2, AoA: aoa2},
			0, region, hint)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if d := pos.Dist(geom.P(truth.X, truth.Y)); d > 2.5 {
			t.Errorf("run %d: position error %.2f m (truth %v, got %v)", run, d, truth, pos)
		}
	}
}

func TestMatchSpikesByCFO(t *testing.T) {
	a := []Spike{{Freq: 100e3}, {Freq: 500e3}, {Freq: 900e3}}
	b := []Spike{{Freq: 501e3}, {Freq: 99e3}}
	m := MatchSpikesByCFO(a, b, 5e3)
	if len(m) != 2 {
		t.Fatalf("matched %d pairs, want 2", len(m))
	}
	got := map[int]int{}
	for _, pr := range m {
		got[pr[0]] = pr[1]
	}
	if got[0] != 1 || got[1] != 0 {
		t.Errorf("matches %v, want 0→1 and 1→0", m)
	}
	if m := MatchSpikesByCFO(a, b, 100.0); len(m) != 0 {
		t.Errorf("tight tolerance matched %d pairs", len(m))
	}
	// Each spike matches at most once even with several candidates.
	c := []Spike{{Freq: 100e3}, {Freq: 101e3}}
	d := []Spike{{Freq: 100.5e3}}
	if m := MatchSpikesByCFO(c, d, 5e3); len(m) != 1 {
		t.Errorf("one-to-many matched %d pairs", len(m))
	}
}
