package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// decisionDigest is the FNV-1a hash TestDecisionDigest computes,
// recorded on commit 2039bbc — the last one whose §5 gates ran ~32
// separate Goertzel walks per (peak, capture). A kernel change may move
// the gate quantities by rounding; it may not move a decision.
const decisionDigest = 0xc24c7d74674b12da

// TestDecisionDigest hashes every decision the analysis makes — which
// peaks survive (kept), in which Bin, at which refined Freq (to the
// bit), and whether the bin is Multiple — over seeded 4/12/24/40-device
// scenes, as 10-query windows (each analyzed twice on one Scratch, cold
// then warm) and as single captures, and compares against the pinned
// constant.
func TestDecisionDigest(t *testing.T) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putSpikes := func(spikes []Spike) {
		put(uint64(len(spikes)))
		for _, s := range spikes {
			put(uint64(s.Bin))
			put(math.Float64bits(s.Freq))
			if s.Multiple {
				put(1)
			} else {
				put(0)
			}
		}
	}
	multiples := 0
	for _, nDevs := range []int{4, 12, 24, 40} {
		for seed := int64(0); seed < 6; seed++ {
			s := newTestScene(t, 9000+10*int64(nDevs)+seed)
			mcs := s.collideQueries(s.placedDevices(nDevs), 10)
			var sc Scratch
			for range 2 {
				spikes, err := sc.AnalyzeCaptures(mcs, s.param, 1)
				if err != nil {
					t.Fatal(err)
				}
				putSpikes(spikes)
				for _, sp := range spikes {
					if sp.Multiple {
						multiples++
					}
				}
			}
			for _, mc := range mcs[:3] {
				spikes, err := sc.AnalyzeCapture(mc, s.param)
				if err != nil {
					t.Fatal(err)
				}
				putSpikes(spikes)
			}
		}
	}
	if multiples == 0 {
		t.Fatal("fixture never exercises a Multiple decision")
	}
	if got := h.Sum64(); got != decisionDigest {
		t.Errorf("decision digest %#x, want %#x: a §5 decision moved", got, uint64(decisionDigest))
	}
}
