package city

import "testing"

// countBin accumulates one truth bin of the §5 count's error: epochs,
// triggered devices, and the summed absolute and signed error.
type countBin struct {
	name            string
	lo, hi          int // triggered devices, inclusive
	epochs, truth   int
	absErr, signErr int
}

func (b *countBin) accuracy() float64 { return 1 - float64(b.absErr)/float64(b.truth) }

// scoreCounts runs cfg's city through a lockstep copy of runPipelined's
// coordinator — world.Advance, claimMask, snapshot, then each reader's
// Measure in reader order — and bins every reader-epoch's |count − truth|
// by truth: the snapshot devices TriggeredFrom the reader's centre,
// which is the set Reader.query turns into transmissions. It also
// returns the per-intersection car-seconds, which must equal Run's.
func scoreCounts(t *testing.T, cfg Config) ([]countBin, []int) {
	t.Helper()
	s, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bins := []countBin{
		{name: "0", lo: 0, hi: 0}, {name: "1–4", lo: 1, hi: 4}, {name: "5–12", lo: 5, hi: 12},
		{name: "13–24", lo: 13, hi: 24}, {name: "> 24", lo: 25, hi: 1 << 30},
	}
	carSeconds := make([]int, (len(s.posts)+1)/2)
	for e := 0; e < int(s.cfg.Duration/epochLen); e++ {
		s.world.Advance(epochLen)
		claims := s.claimMask(s.world.Devices(), nil)
		for i, p := range s.posts {
			devs, err := s.snapshot(p, claims[i])
			if err != nil {
				t.Fatal(err)
			}
			truth := 0
			for _, d := range devs {
				if d.TriggeredFrom(p.rd.Center(), p.rd.QueryAmplitude, p.rd.Capture.Wavelength) {
					truth++
				}
			}
			res, err := p.rd.Measure(devs, windowQueries, p.rng)
			if err != nil {
				t.Fatal(err)
			}
			carSeconds[p.intersection] += res.Count
			for b := range bins {
				if truth >= bins[b].lo && truth <= bins[b].hi {
					bins[b].epochs++
					bins[b].truth += truth
					bins[b].absErr += max(res.Count-truth, truth-res.Count)
					bins[b].signErr += res.Count - truth
				}
			}
		}
	}
	return bins, carSeconds
}

// TestCountAccuracyFloor pins the city's §5 count against the
// simulator's truth on the reference city (8 readers, 200 vehicles,
// 30 s), seeds 1–3: accuracy 1 − Σ|err|/Σtruth per truth bin, and no
// phantom car on an empty scene. Each floor is the lowest seed's
// accuracy minus the seeds' spread. The bins say where the counter
// loses cars — dense scenes undercount — and a change that moves a
// count moves them; raise a floor it lifts, never lower one.
func TestCountAccuracyFloor(t *testing.T) {
	// Measured at the floors' commit, seeds 1, 2, 3:
	// 1–4: 0.957 0.996 0.966; 5–12: 0.916 0.948 0.942;
	// 13–24: 0.856 0.863 0.868; > 24: 0.824 0.779 0.787.
	floors := []float64{1: 0.918, 2: 0.884, 3: 0.844, 4: 0.734}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := Config{Readers: 8, Vehicles: 200, Seed: seed, DecodeEvery: -1}
		bins, carSeconds := scoreCounts(t, cfg)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for ix, st := range res.PerIntersection {
			if st.CarSeconds != carSeconds[ix] {
				t.Fatalf("seed %d: the copy counts %d car-seconds at intersection %d, Run %d: it no longer matches the coordinator",
					seed, carSeconds[ix], ix, st.CarSeconds)
			}
		}
		for b, bin := range bins {
			if bin.epochs == 0 {
				t.Errorf("seed %d, truth %s: no reader-epoch in the bin", seed, bin.name)
				continue
			}
			if b == 0 {
				t.Logf("seed %d, truth %-5s: %3d epochs, %d phantom cars", seed, bin.name, bin.epochs, bin.absErr)
				if bin.absErr > 0 {
					t.Errorf("seed %d: %d phantom cars counted on empty scenes", seed, bin.absErr)
				}
				continue
			}
			t.Logf("seed %d, truth %-5s: %3d epochs, accuracy %.3f, bias %+.2f cars",
				seed, bin.name, bin.epochs, bin.accuracy(), float64(bin.signErr)/float64(bin.epochs))
			if acc := bin.accuracy(); acc < floors[b] {
				t.Errorf("seed %d, truth %s: accuracy %.3f under its floor %.3f", seed, bin.name, acc, floors[b])
			}
		}
	}
}
