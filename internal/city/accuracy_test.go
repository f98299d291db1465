package city

import "testing"

// referenceScores memoizes the reference city's Result.Score per seed:
// 8 readers, 200 vehicles, 30 s, default decoding. The §5 and §8 floor
// tests and the §7 ceilings read the same runs.
var referenceScores = map[int64]Score{}

func referenceScore(t *testing.T, seed int64) Score {
	t.Helper()
	if sc, ok := referenceScores[seed]; ok {
		return sc
	}
	res, err := Run(Config{Readers: 8, Vehicles: 200, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	referenceScores[seed] = res.Score
	return res.Score
}

// TestCountAccuracyFloor pins the city's §5 count against the
// simulator's truth on the reference city, read from Result.Score:
// accuracy 1 − Σ|err|/Σtruth per truth bin, and no phantom car on an
// empty scene. Each floor is the lowest of seeds 1–3 minus their
// spread. The bins say where the counter loses cars — dense scenes
// undercount — and a change that moves a count moves them; raise a
// floor it lifts, never lower one. Seeds 4 and 5 are held out: logged,
// not floored (ROADMAP item 1 records that two of their bins read
// under these floors).
func TestCountAccuracyFloor(t *testing.T) {
	// Measured at the floors' commit, seeds 1, 2, 3:
	// 1–4: 0.957 0.996 0.966; 5–12: 0.916 0.948 0.942;
	// 13–24: 0.856 0.863 0.868; > 24: 0.824 0.779 0.787.
	// Held out, seeds 4, 5: 1–4: 0.940 0.973; 5–12: 0.943 0.958;
	// 13–24: 0.852 0.831; > 24: 0.689 0.755.
	floors := []float64{1: 0.918, 2: 0.884, 3: 0.844, 4: 0.734}
	for seed := int64(1); seed <= 5; seed++ {
		floored := seed <= 3
		for b, bin := range referenceScore(t, seed).Count {
			name := bin.Name()
			if bin.Epochs == 0 {
				if floored {
					t.Errorf("seed %d, truth %s: no reader-epoch in the bin", seed, name)
				}
				continue
			}
			if b == 0 {
				t.Logf("seed %d, truth %-5s: %3d epochs, %d phantom cars", seed, name, bin.Epochs, bin.AbsErr)
				if floored && bin.AbsErr > 0 {
					t.Errorf("seed %d: %d phantom cars counted on empty scenes", seed, bin.AbsErr)
				}
				continue
			}
			t.Logf("seed %d, truth %-5s: %3d epochs, accuracy %.3f, bias %+.2f cars",
				seed, name, bin.Epochs, bin.Accuracy(), bin.Bias())
			if acc := bin.Accuracy(); floored && acc < floors[b] {
				t.Errorf("seed %d, truth %s: accuracy %.3f under its floor %.3f", seed, name, acc, floors[b])
			}
		}
	}
}

// TestDecodedIDsAreFleetIDs scores the §8 decodes of the reference city,
// seeds 1–5, read from Result.Score: every id a reader decodes must be a
// device it claimed that epoch — a frame that passes its CRC with the
// wrong id is named, not forgiven — and recall (decoded ÷ triggered
// devices alone in their FFT bin) holds its floor: the lowest seed's
// recall minus the seeds' spread.
func TestDecodedIDsAreFleetIDs(t *testing.T) {
	// Measured at the floor's commit, seeds 1–5:
	// 0.671 0.641 0.635 0.577 0.714; 271–329 decodes per seed.
	const recallFloor = 0.440
	for seed := int64(1); seed <= 5; seed++ {
		d := referenceScore(t, seed).Decode
		if d.Decodes == 0 || d.Single == 0 {
			t.Fatalf("seed %d: %d decodes of %d single-occupancy devices: the check is vacuous", seed, d.Decodes, d.Single)
		}
		t.Logf("seed %d: %d decode epochs, recall %.3f (%d of %d), %d decodes, %d wrong",
			seed, d.Epochs, d.Recall(), d.Recalled, d.Single, d.Decodes, len(d.Wrong))
		for _, id := range d.Wrong {
			t.Errorf("seed %d: decoded id %#x is no device its reader claimed", seed, id)
		}
		if r := d.Recall(); r < recallFloor {
			t.Errorf("seed %d: recall %.3f under its floor %.3f", seed, r, recallFloor)
		}
	}
}

// TestSpeedErrorCeiling scores the §7 speed answers of the reference
// city, seeds 1–5, read from Result.Score: per seed, |answer − true
// speed| at p50 and p90, the share of answers flagged SPEEDING for a
// car at or under the limit, and the answers whose decoded id names
// another car. Each error and share ceiling is the worst seed plus the
// seeds' spread, the wrong-id ceiling the worst seed. Lower a ceiling a
// change beats; never raise one.
func TestSpeedErrorCeiling(t *testing.T) {
	// Measured at the ceilings' commit, seeds 1–5: answers 185 177 175
	// 165 185; p50 3.06 2.88 2.83 3.12 2.71; p90 11.45 11.09 11.46 11.93
	// 11.78; SPEEDING false/all 40/47 45/48 49/60 51/58 48/60; wrong ids
	// 0 1 2 0 2.
	const (
		p50Ceiling        = 3.53
		p90Ceiling        = 12.77
		falseShareCeiling = 0.402
		wrongIDCeiling    = 2
	)
	for seed := int64(1); seed <= 5; seed++ {
		v := referenceScore(t, seed).Speed
		if v.Answers == 0 {
			t.Fatalf("seed %d: no speed answer: the check is vacuous", seed)
		}
		share := float64(v.FalseSpeeding) / float64(v.Answers)
		t.Logf("seed %d: %d answers, |error| p50 %.2f p90 %.2f m/s, SPEEDING %d false of %d (share %.3f), %d wrong ids",
			seed, v.Answers, v.P50, v.P90, v.FalseSpeeding, v.Speeding, share, v.WrongIDs)
		if v.P50 > p50Ceiling {
			t.Errorf("seed %d: |error| p50 %.2f m/s over its ceiling %.2f", seed, v.P50, p50Ceiling)
		}
		if v.P90 > p90Ceiling {
			t.Errorf("seed %d: |error| p90 %.2f m/s over its ceiling %.2f", seed, v.P90, p90Ceiling)
		}
		if share > falseShareCeiling {
			t.Errorf("seed %d: false SPEEDING share %.3f over its ceiling %.3f", seed, share, falseShareCeiling)
		}
		if v.WrongIDs > wrongIDCeiling {
			t.Errorf("seed %d: %d answers name another car, ceiling %d", seed, v.WrongIDs, wrongIDCeiling)
		}
	}
}
