package core

import (
	"math"
	"math/cmplx"
	"reflect"
	"sort"
	"testing"

	"caraoke/internal/dsp"
	"caraoke/internal/phy"
)

// refinePeakOracle is the per-peak chain as it ran before the probe
// bank, for the job detectPeaks left in sc.job: every capture
// classified (an exhaustive vote, each through a ClassifyBin of its
// own), three full-length Goertzel walks per capture for the shoulder
// and three more for purity, full sorts for the medians. It returns the
// spike and whether it is kept.
func (sc *Scratch) refinePeakOracle(pi int) (Spike, bool) {
	job := &sc.job
	mcs, rate, pk := job.mcs, job.rate, job.peaks[pi]
	var freqs []float64
	for _, mc := range mcs {
		freqs = append(freqs, dsp.RefineFreq(mc.Antennas[0], rate, pk))
	}
	sort.Float64s(freqs)
	freq := freqs[len(freqs)/2]

	s := Spike{Freq: freq, Bin: pk.Bin, Mag: pk.Mag, Channels: make([]complex128, job.nAnt)}
	scale := complex(2/float64(phy.ResponseSamples), 0)
	for a, stream := range job.last.Antennas {
		s.Channels[a] = dsp.Goertzel(stream, freq/rate) * scale
	}
	votes := 0
	for _, mc := range mcs {
		if dsp.ClassifyBin(mc.Antennas[0], rate, freq) == dsp.OccupancyMultiple {
			votes++
		}
	}
	s.Multiple = 10*votes >= 4*len(mcs)
	if !s.Multiple {
		var c2, s2 float64
		for _, mc := range mcs {
			st := mc.Antennas[0]
			c := cmplx.Abs(dsp.Goertzel(st, freq/rate))
			lo := cmplx.Abs(dsp.Goertzel(st, (freq-job.binW)/rate))
			hi := cmplx.Abs(dsp.Goertzel(st, (freq+job.binW)/rate))
			c2 += c * c
			s2 += math.Max(lo, hi) * math.Max(lo, hi)
		}
		if c2 > 0 {
			var vals []float64
			for d := 3; d <= 16; d++ {
				if pk.Bin-d >= 0 {
					vals = append(vals, sc.avg.Mag(pk.Bin-d))
				}
				if pk.Bin+d < len(sc.avg.Bins) {
					vals = append(vals, sc.avg.Mag(pk.Bin+d))
				}
			}
			sort.Float64s(vals)
			thresh := 0.45
			if adaptive := 2.6 * vals[len(vals)/2] / math.Sqrt(c2/float64(len(mcs))); adaptive > thresh {
				thresh = adaptive
			}
			if math.Sqrt(s2/c2) > thresh {
				s.Multiple = true
			}
		}
	}
	if !s.Multiple && pk.Mag < purityMaxRel*job.strongest {
		pure := 0
		for _, mc := range mcs {
			st := mc.Antennas[0]
			if purity(centreMag(st, rate, freq), st, rate, freq, job.binW) >= purityMin {
				pure++
			}
		}
		if pure*2 <= len(mcs) {
			return s, false
		}
	}
	return s, true
}

// refineFixture runs the detection stage over a 10-query window of
// nDevs devices and returns the scratch with its per-peak job in place.
func refineFixture(t testing.TB, seed int64, nDevs int) *Scratch {
	s := newTestScene(t, seed)
	mcs := s.collideQueries(s.placedDevices(nDevs), 10)
	sc := new(Scratch)
	if err := sc.detectPeaks(mcs, s.param); err != nil {
		t.Fatal(err)
	}
	if len(sc.job.peaks) == 0 {
		t.Fatal("fixture found no peaks")
	}
	return sc
}

// TestRefinePeakMatchesOracle: peak by peak over 4/12/24/40-device
// windows, the bank-based chain with its early-settled vote keeps,
// drops and flags exactly what the exhaustive many-Goertzel chain does,
// and reports the same Freq, Mag and Channels to the bit.
func TestRefinePeakMatchesOracle(t *testing.T) {
	kept, dropped, multiple := 0, 0, 0
	for i, nDevs := range []int{4, 12, 24, 40, 40} {
		sc := refineFixture(t, 9500+int64(i), nDevs)
		for pi := range sc.job.peaks {
			want, wantKeep := sc.refinePeakOracle(pi)
			got, keep := sc.refinePeak(pi)
			if keep != wantKeep {
				t.Errorf("%d devices, peak %d (bin %d): kept %v, oracle %v", nDevs, pi, want.Bin, keep, wantKeep)
				continue
			}
			if !wantKeep {
				dropped++
				continue
			}
			kept++
			if want.Multiple {
				multiple++
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%d devices, peak %d: spike %+v, oracle %+v", nDevs, pi, got, want)
			}
		}
	}
	if kept == 0 || dropped == 0 || multiple == 0 {
		t.Errorf("fixtures are one-sided: %d kept (%d Multiple), %d dropped", kept, multiple, dropped)
	}
}

// BenchmarkRefinePeak measures the per-peak chain alone: one op is one
// peak of a 24-device, 10-query window taken through refinement, vote,
// shoulder and purity.
func BenchmarkRefinePeak(b *testing.B) {
	sc := refineFixture(b, 811, 24)
	sc.refinePeak(0) // warm the bank
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.refinePeak(i % len(sc.job.peaks))
	}
}
