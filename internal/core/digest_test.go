package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"caraoke/internal/dsp"
	"caraoke/internal/phy"
	"caraoke/internal/rfsim"
)

// decisionDigest is the FNV-1a hash of every decision TestDecisionDigest
// sees. It was split out of one hash of decisions and Freq bits, pinned
// on commit 85d3919 (whose windows refined every peak with two
// half-capture Goertzel walks per capture), and recorded on 4c8a9f8, the
// last commit whose simulator stepped an oscillator per sample; the
// cached reply waves left it as it was. A kernel or a simulator change
// may move the gate quantities and a refined Freq by rounding; it may
// not move a decision. If it moves, find the window: do not re-pin.
const decisionDigest = 0x2c361d8f3d7f270a

// singleFreqDigest is the FNV-1a hash of the single captures' refined
// Freq bits. It moves with any rounding change to the samples or to the
// refinement, and only then: the cached reply waves re-pinned it from
// 0xfbf1a4fe8ebc8335, and a lone capture's refinement moving from two
// half-capture Goertzel walks (dsp.RefineFreq) to its spectrum bin and
// first-half transform bin (dsp.RefineFromBins, as a window refines)
// re-pinned it from 0x49ec4ef05f0900b0, each time while decisionDigest
// held. A change that means to move the synthesized bits or the
// refinement's arithmetic re-pins it; any other that moves it moved a
// sample or a Freq.
const singleFreqDigest = 0x41ce0df62cf71d7d

// digestScene is one seeded scene of the digest fixture: a 10-query
// window of nDevs placed devices.
type digestScene struct {
	param Params
	mcs   []*rfsim.MultiCapture
}

// digestScenes returns the digest's seeded 4/12/24/40-device scenes,
// six of each.
func digestScenes(t testing.TB) []digestScene {
	var scenes []digestScene
	for _, nDevs := range []int{4, 12, 24, 40} {
		for seed := int64(0); seed < 6; seed++ {
			s := newTestScene(t, 9000+10*int64(nDevs)+seed)
			scenes = append(scenes, digestScene{s.param, s.collideQueries(s.placedDevices(nDevs), 10)})
		}
	}
	return scenes
}

// TestDecisionDigest hashes every decision the analysis makes — which
// peaks survive (kept), in which Bin, and whether the bin is Multiple —
// over the digest's scenes, as 10-query windows (each analyzed twice on
// one Scratch, cold then warm) and as single captures, and compares
// against decisionDigest. The single captures' refined Freq bits go to a
// second hash, held to singleFreqDigest; a window's Freq is held by
// TestWindowFreqMatchesRefineFreq instead.
func TestDecisionDigest(t *testing.T) {
	decisions, freqs := fnv.New64a(), fnv.New64a()
	var buf [8]byte
	put := func(h hash.Hash64, v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putSpikes := func(spikes []Spike, freq bool) {
		put(decisions, uint64(len(spikes)))
		for _, s := range spikes {
			put(decisions, uint64(s.Bin))
			if freq {
				put(freqs, math.Float64bits(s.Freq))
			}
			if s.Multiple {
				put(decisions, 1)
			} else {
				put(decisions, 0)
			}
		}
	}
	multiples := 0
	for _, sn := range digestScenes(t) {
		var sc Scratch
		for range 2 {
			spikes, err := sc.AnalyzeCaptures(sn.mcs, sn.param, 1)
			if err != nil {
				t.Fatal(err)
			}
			putSpikes(spikes, false)
			for _, sp := range spikes {
				if sp.Multiple {
					multiples++
				}
			}
		}
		for _, mc := range sn.mcs[:3] {
			spikes, err := sc.AnalyzeCapture(mc, sn.param)
			if err != nil {
				t.Fatal(err)
			}
			putSpikes(spikes, true)
		}
	}
	if multiples == 0 {
		t.Fatal("fixture never exercises a Multiple decision")
	}
	if got := decisions.Sum64(); got != decisionDigest {
		t.Errorf("decision digest %#x, want %#x: a §5 decision moved", got, uint64(decisionDigest))
	}
	if got := freqs.Sum64(); got != singleFreqDigest {
		t.Errorf("single-capture Freq digest %#x, want %#x: a refined Freq moved by rounding", got, uint64(singleFreqDigest))
	}
}

// TestWindowFreqMatchesRefineFreq: every spike a window reports — on
// the digest's scenes — lies within 1e-6 Hz of the median of
// dsp.RefineFreq over the window's captures at the spike's bin, the
// per-capture half-window Goertzel refinement. The window refines from
// its transforms instead; only rounding separates the two.
func TestWindowFreqMatchesRefineFreq(t *testing.T) {
	const binW = phy.SampleRate / float64(phy.ResponseSamples)
	var sc Scratch
	n, worst := 0, 0.0
	for _, sn := range digestScenes(t) {
		spikes, err := sc.AnalyzeCaptures(sn.mcs, sn.param, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range spikes {
			pk := dsp.Peak{Bin: s.Bin, Freq: float64(s.Bin) * binW}
			freqs := make([]float64, len(sn.mcs))
			for qi, mc := range sn.mcs {
				freqs[qi] = dsp.RefineFreq(mc.Antennas[0], pk)
			}
			sort.Float64s(freqs)
			want := freqs[len(freqs)/2]
			d := math.Abs(s.Freq - want)
			if d > 1e-6 {
				t.Errorf("bin %d: window Freq %.9f Hz, median RefineFreq %.9f Hz (|Δ| %.3g Hz)", s.Bin, s.Freq, want, d)
			}
			n++
			worst = max(worst, d)
		}
	}
	if n == 0 {
		t.Fatal("fixture reports no spike")
	}
	t.Logf("%d spikes, worst |Δ| %.3g Hz", n, worst)
}
