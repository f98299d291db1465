package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"caraoke/internal/dsp"
	"caraoke/internal/phy"
	"caraoke/internal/rfsim"
)

// oracleStats tallies what analyzeCaptureOracle decided on the way, so a
// fixture can show it reached every branch.
type oracleStats struct {
	relaxedOnly int // peaks only the relaxed sweep found
	impure      int // of those, dropped by the loop's purity test
	ghosts      int // spikes rejectImpureGhostsOracle dropped
	multiple    int // spikes reported Multiple
}

// analyzeCaptureOracle is the single-capture chain as it ran with two
// peak sweeps: a strict sweep recorded in a map of bins, then the
// relaxed sweep; each peak refined by dsp.RefineFreq's two half-capture
// Goertzel walks, classified by dsp.ClassifyBin, its purity centre a
// Goertzel walk of its own; and a second purity walk over every weak
// single spike once the loop is done, whether the loop already tested
// it or not.
func analyzeCaptureOracle(mc *rfsim.MultiCapture, st *oracleStats) []Spike {
	ref := mc.Antennas[0]
	spec := dsp.NewSpectrum(ref, phy.SampleRate)
	binW := spec.BinWidth()
	strict := make(map[int]bool)
	for _, pk := range dsp.FindPeaks(spec, dsp.PeakParams{Threshold: 4, Sharpness: 4, SharpRadius: 10}) {
		strict[pk.Bin] = true
	}
	peaks := rejectClockImages(dsp.FindPeaks(spec, relaxedPeaks), binW)
	var spikes []Spike
	for _, pk := range peaks {
		freq := dsp.RefineFreq(ref, pk)
		s := Spike{Freq: freq, Bin: pk.Bin, Mag: pk.Mag, Channels: make([]complex128, len(mc.Antennas))}
		scale := complex(2/float64(phy.ResponseSamples), 0)
		for a, stream := range mc.Antennas {
			s.Channels[a] = dsp.Goertzel(stream, freq/phy.SampleRate) * scale
		}
		s.Multiple = dsp.ClassifyBin(ref, freq) == dsp.OccupancyMultiple
		if !strict[pk.Bin] {
			st.relaxedOnly++
			if !s.Multiple && !isPure(centreMag(ref, freq), ref, freq, binW) {
				st.impure++
				continue
			}
		}
		spikes = append(spikes, s)
	}
	n := len(spikes)
	spikes = rejectImpureGhostsOracle(ref, binW, spikes)
	st.ghosts += n - len(spikes)
	suppressResolvedNeighbors(spikes, binW)
	for _, s := range spikes {
		if s.Multiple {
			st.multiple++
		}
	}
	return spikes
}

// rejectImpureGhostsOracle tests every weak single spike for purity
// afresh, its centre a Goertzel walk.
func rejectImpureGhostsOracle(ref []complex128, binWidth float64, spikes []Spike) []Spike {
	var strongest float64
	for _, s := range spikes {
		strongest = max(strongest, s.Mag)
	}
	out := spikes[:0]
	for _, s := range spikes {
		if !s.Multiple && s.Mag < purityMaxRel*strongest &&
			!isPure(centreMag(ref, s.Freq), ref, s.Freq, binWidth) {
			continue
		}
		out = append(out, s)
	}
	return out
}

// centreMag is the DFT magnitude of ref at freq by one Goertzel walk:
// the purity centre the oracles use where the analysis reads the probe
// bank's.
func centreMag(ref []complex128, freq float64) float64 {
	return cmplx.Abs(dsp.Goertzel(ref, freq/phy.SampleRate))
}

// TestAnalyzeCaptureMatchesOracle: on every capture of the digest's
// scenes and on 200 more seeded single captures at 4/12/24/40 devices,
// the one-sweep, probe-bank AnalyzeCapture reports the oracle's spikes
// in the oracle's order — the same count, Bin, Mag and Multiple — with
// Freq within 1e-6 Hz (the bound TestWindowFreqMatchesRefineFreq holds
// a window to) and every channel within 1e-9 of the oracle's, relative.
// The fixture must reach every branch: peaks only the relaxed sweep
// finds, kept and dropped by purity, ghosts the second purity test
// drops, and Multiple spikes.
func TestAnalyzeCaptureMatchesOracle(t *testing.T) {
	var caps []*rfsim.MultiCapture
	for _, sn := range digestScenes(t) {
		caps = append(caps, sn.mcs...)
	}
	for _, nDevs := range []int{4, 12, 24, 40} {
		s := newTestScene(t, 9700+int64(nDevs))
		for range 50 {
			caps = append(caps, s.collide(s.placedDevices(nDevs)))
		}
	}
	var sc Scratch
	var st oracleStats
	worstFreq, worstChan := 0.0, 0.0
	for ci, mc := range caps {
		want := analyzeCaptureOracle(mc, &st)
		got, err := sc.AnalyzeCapture(mc, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if err := matchSpikes(got, want, &worstFreq, &worstChan); err != nil {
			t.Errorf("capture %d: %v", ci, err)
		}
	}
	t.Logf("%d captures, %+v; worst |ΔFreq| %.3g Hz, worst channel error %.3g relative", len(caps), st, worstFreq, worstChan)
	if st.relaxedOnly == st.impure || st.impure == 0 || st.ghosts == 0 || st.multiple == 0 {
		t.Errorf("fixture is one-sided: %+v", st)
	}
}

// matchSpikes reports how got departs from want beyond the oracle
// test's bounds, raising the worst Freq and channel errors it saw.
func matchSpikes(got, want []Spike, worstFreq, worstChan *float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d spikes, oracle %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Bin != w.Bin || g.Mag != w.Mag || g.Multiple != w.Multiple {
			return fmt.Errorf("spike %d: bin %d mag %g multiple %v, oracle bin %d mag %g multiple %v",
				i, g.Bin, g.Mag, g.Multiple, w.Bin, w.Mag, w.Multiple)
		}
		d := math.Abs(g.Freq - w.Freq)
		*worstFreq = max(*worstFreq, d)
		if d > 1e-6 {
			return fmt.Errorf("bin %d: Freq %.9f Hz, oracle %.9f Hz", w.Bin, g.Freq, w.Freq)
		}
		for a, h := range w.Channels {
			rel := cmplx.Abs(g.Channels[a]-h) / cmplx.Abs(h)
			*worstChan = max(*worstChan, rel)
			if !(rel <= 1e-9) {
				return fmt.Errorf("bin %d antenna %d: channel %v, oracle %v", w.Bin, a, g.Channels[a], h)
			}
		}
	}
	return nil
}
