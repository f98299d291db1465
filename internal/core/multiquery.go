package core

import (
	"fmt"
	"math"

	"caraoke/internal/dsp"
	"caraoke/internal/phy"
	"caraoke/internal/rfsim"
)

// AnalyzeCaptures extracts transponder spikes from several collision
// captures of the *same* scene (successive reader queries). The §10
// duty cycle gives a reader ~10 queries per 10 ms active window, and
// using all of them sharpens every stage of the pipeline:
//
//   - Magnitude spectra average incoherently across queries. The
//     carrier spikes are stable (|h| does not change between queries)
//     while each transponder's OOK data contributes an independent
//     realization per query — its Rayleigh maxima shrink by √K
//     relative to the spikes, which is what keeps counting accurate at
//     40+ colliders.
//   - The §5 dual-window occupancy test is re-run capture by capture
//     and put to a 40 % vote (captures past the point where the vote is
//     settled are not classified). Oscillator phases re-randomize at
//     each reply, so a same-bin pair that happens to beat invisibly in
//     one query is caught in the others.
//
// The gates are calibrated for that window, K ≈ 8–10: with fewer
// captures the averaged-spectrum sweep counts cars on an empty road.
//
// Channels are taken from the last capture (callers doing AoA on a
// specific query should use AnalyzeCapture on that capture).
func AnalyzeCaptures(mcs []*rfsim.MultiCapture, p Params) ([]Spike, error) {
	var sc Scratch
	return sc.AnalyzeCaptures(mcs, p, 1)
}

// AnalyzeCaptures is the pooled implementation behind the package-level
// AnalyzeCaptures: two transforms per capture — the capture and its
// first half (detectPeaks) — then the per-peak refinement/occupancy
// chain (a refined frequency read off the two transforms, one
// de-rotation per peak per capture through a dsp.ProbeBank; see
// refinePeak), all on the calling goroutine. A ragged capture (antenna
// streams of different lengths) or one holding a non-finite sample
// (ErrNonFiniteCapture) is refused before any result buffer is touched.
// The result obeys the Scratch ownership contract.
//
// Of a window of several captures it reads antenna 0 of every capture
// and the other antennas of the last one alone (their channels); the
// captures before the last may hold the reference antenna only. A lone
// capture goes to AnalyzeCapture, which reads every antenna.
//
// The third argument is ignored: analysis is serial. It is kept, as
// reader.Config.Workers and city.Config.Workers are, for callers built
// against the worker-pool signature.
func (sc *Scratch) AnalyzeCaptures(mcs []*rfsim.MultiCapture, p Params, _ int) ([]Spike, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(mcs) == 0 {
		return nil, fmt.Errorf("core: no captures")
	}
	if len(mcs) == 1 {
		return sc.AnalyzeCapture(mcs[0], p)
	}
	if err := sc.detectPeaks(mcs, p); err != nil {
		return nil, err
	}
	spikes := sc.spikes[:0]
	for pi := range sc.job.peaks {
		if s, ok := sc.refinePeak(pi); ok {
			spikes = append(spikes, s)
		}
	}
	binW := sc.job.binW
	sc.job = peakJob{} // don't pin the captures past this call
	suppressResolvedNeighbors(spikes, binW)
	sc.spikes = spikes
	return spikes, nil
}

// detectPeaks is the first stage of AnalyzeCaptures: validate the
// window, transform every capture, average the spectra, find the peaks,
// transform every capture's first half, and leave in sc.job — with
// sc.chans sized to match, the transforms in sc.specs and the first
// halves' peak bins in sc.firsts — everything refinePeak needs.
func (sc *Scratch) detectPeaks(mcs []*rfsim.MultiCapture, p Params) error {
	for i, mc := range mcs {
		if err := checkShape(mc); err != nil {
			return fmt.Errorf("core: capture %d: %w", i, err)
		}
	}
	// Root-mean-square magnitude spectrum across queries.
	for len(sc.specs) < len(mcs) {
		sc.specs = append(sc.specs, dsp.Spectrum{})
	}
	specs := sc.specs[:len(mcs)]
	for i, mc := range mcs {
		sc.plan.SpectrumInto(&specs[i], mc.Antennas[0], phy.SampleRate)
	}
	last := mcs[len(mcs)-1]
	for i := range specs {
		if !finitePow(specs[i].Pows[0]) {
			return fmt.Errorf("core: capture %d: %w", i, ErrNonFiniteCapture)
		}
	}
	if !finiteStreams(last.Antennas[1:]) {
		return fmt.Errorf("core: capture %d: %w", len(mcs)-1, ErrNonFiniteCapture)
	}
	const n = phy.ResponseSamples
	acc := grow(sc.acc, n)
	sc.acc = acc
	clear(acc)
	for qi := range specs {
		// The fused transform already produced |X[k]|² for every bin
		// (the same re·re+im·im this loop used to recompute).
		for k, pw := range specs[qi].Pows {
			acc[k] += pw
		}
	}
	sc.avg.SampleRate = phy.SampleRate
	sc.avg.Bins = grow(sc.avg.Bins, n)
	sc.avg.Mags = grow(sc.avg.Mags, n)
	sc.avg.Pows = sc.avg.Pows[:0] // not maintained for the synthetic average
	avg := &sc.avg
	inv := 1 / float64(len(mcs))
	for k, pw := range acc {
		m := math.Sqrt(pw * inv)
		avg.Bins[k] = complex(m, 0)
		avg.Mags[k] = m
	}
	peaks := rejectClockImages(sc.plan.FindPeaks(avg, averagedPeaks), avg.BinWidth())

	// Each capture's first-half transform, kept at the peaks' bins only:
	// firsts[pi·K + qi] is bin peaks[pi].Bin of capture qi's.
	k := len(mcs)
	sc.half = grow(sc.half, n)
	sc.firsts = grow(sc.firsts, len(peaks)*k)
	for qi, mc := range mcs {
		dsp.HalfTransform(sc.half, mc.Antennas[0])
		for pi, pk := range peaks {
			sc.firsts[pi*k+qi] = sc.half[pk.Bin]
		}
	}

	nAnt := len(last.Antennas)
	sc.chans = grow(sc.chans, len(peaks)*nAnt)
	sc.job = peakJob{
		mcs:       mcs,
		peaks:     peaks,
		last:      last,
		binW:      avg.BinWidth(),
		strongest: strongestMag(peaks),
		nAnt:      nAnt,
	}
	return nil
}

// peakJob carries the shared inputs of the per-peak refinement stage
// from detectPeaks to refinePeak.
type peakJob struct {
	mcs       []*rfsim.MultiCapture
	peaks     []dsp.Peak
	last      *rfsim.MultiCapture
	binW      float64
	strongest float64
	nAnt      int
}

// refinePeak runs the full per-peak chain — median refined frequency,
// channel estimates, occupancy vote, shoulder test, purity vote — for
// peak pi, and reports its spike and whether it survived the gates.
// Inputs come from sc.job; see peakJob.
//
// A capture's refined frequency is dsp.RefineFromBins of the peak's bin
// in the capture's transform and in its first half's, both made by
// detectPeaks: O(1) per (peak, capture), where walking the two halves
// at the bin frequency cost about 2 560 complex multiplies.
//
// Every gate quantity is a DFT of antenna 0 at the refined frequency
// plus a small fixed offset, so the scratch's dsp.ProbeBank is tuned to
// that frequency once per peak and each capture is de-rotated once:
// the occupancy test's window and reference probes and the shoulder's
// centre and ±1-bin probes are then sums and near-zero DFT bins of the
// de-rotated capture (exactly — see ProbeBank), and the centre doubles
// as the purity test's. The occupancy test reads its reference probes
// only when its fixed tolerances leave the verdict open. Only purity's
// two off-grid ±0.75-bin probes remain Goertzel walks, the +0.75 one
// only when the −0.75 one leaves the capture's verdict open (isPure),
// and the purity vote stops once it is decided. What a spike reports —
// Freq, Mag, Channels — does not come from the bank.
func (sc *Scratch) refinePeak(pi int) (Spike, bool) {
	job := &sc.job
	mcs := job.mcs
	pk := job.peaks[pi]
	// Median refined frequency across captures.
	freqs := sc.freqs[:0]
	firsts := sc.firsts[pi*len(mcs) : (pi+1)*len(mcs)]
	for qi, first := range firsts {
		freqs = append(freqs, dsp.RefineFromBins(pk, sc.specs[qi].Bins[pk.Bin], first))
	}
	sc.freqs = freqs
	freq := dsp.SelectFloat(freqs, len(freqs)/2)

	nAnt := job.nAnt
	s := Spike{
		Freq:     freq,
		Bin:      pk.Bin,
		Mag:      pk.Mag,
		Channels: sc.chans[pi*nAnt : (pi+1)*nAnt : (pi+1)*nAnt],
	}
	scale := complex(2/float64(phy.ResponseSamples), 0)
	for a, stream := range job.last.Antennas {
		s.Channels[a] = dsp.Goertzel(stream, freq/phy.SampleRate) * scale
	}
	// Vote over the per-capture occupancy tests. Oscillator phases
	// re-randomize between queries, so a pair invisible in one
	// query beats in others; per-capture detection falls in large
	// collisions, while the per-capture false-positive rate stays
	// low — hence a 40 % quorum rather than a strict majority. A
	// capture is classified only while its verdict can still change the
	// outcome (quorumOpen).
	//
	// Shoulder test, in the same pass: the DFT of a lone carrier has an
	// exact null ±1 bin from its refined frequency, while a second tone
	// merged into the same peak fills that null. RMS-average across
	// captures (CFOs are fixed; only phases change) — all of them, vote
	// settled or not, unless the vote already says Multiple.
	bank := &sc.bank
	bank.Tune(freq)
	centres := grow(sc.centres, len(mcs))
	sc.centres = centres
	votes := 0
	var c2, s2 float64
	for qi, mc := range mcs {
		bank.Load(mc.Antennas[0])
		if quorumOpen(votes, qi, len(mcs)) && bank.Occupancy() == dsp.OccupancyMultiple {
			votes++
			if quorumMet(votes, len(mcs)) {
				break
			}
		}
		c, side := bank.Shoulder()
		centres[qi] = c
		c2 += c * c
		s2 += side * side
	}
	s.Multiple = quorumMet(votes, len(mcs))
	if !s.Multiple && c2 > 0 {
		shoulder := math.Sqrt(s2 / c2)
		// The expected shoulder of a lone carrier is set by the local
		// collision floor (max of two Rayleigh draws ≈ 1.3× the per-bin
		// level); require 2× headroom above it before declaring a
		// merged companion, raising the threshold above the collision
		// floor for weak spikes.
		local := localFloorInto(&sc.avg, pk.Bin, &sc.vals)
		thresh := 0.45
		if adaptive := 2.6 * local / math.Sqrt(c2/float64(len(mcs))); adaptive > thresh {
			thresh = adaptive
		}
		if shoulder > thresh {
			s.Multiple = true
		}
	}
	// Tone-purity vote for weak spikes that look single: a carrier
	// is pure in every capture; a data-floor maximum is not. The vote
	// stops once a strict majority is pure (kept) or half the window
	// is not (dropped).
	if !s.Multiple && pk.Mag < purityMaxRel*job.strongest {
		k, pure, impure := len(mcs), 0, 0
		for qi, mc := range mcs {
			if isPure(centres[qi], mc.Antennas[0], freq, job.binW) {
				pure++
			} else {
				impure++
			}
			if pure*2 > k || impure*2 >= k {
				break
			}
		}
		if pure*2 <= k {
			return Spike{}, false
		}
	}
	return s, true
}

// quorumMet reports whether votes Multiple verdicts out of k captures
// reach the 40 % occupancy quorum.
func quorumMet(votes, k int) bool { return 10*votes >= 4*k }

// quorumOpen reports whether the quorum over k captures is still
// undecided after seen of them cast votes Multiple verdicts: not yet
// met, and not yet out of reach even if every remaining capture votes
// Multiple. At k = 10 a lone carrier (no votes) closes after 7.
func quorumOpen(votes, seen, k int) bool {
	return !quorumMet(votes, k) && quorumMet(votes+k-seen, k)
}

// localFloorInto estimates the collision floor near bin k as the median
// magnitude of the bins 3–16 away on each side, collecting them in the
// caller's reusable buffer.
func localFloorInto(spec *dsp.Spectrum, k int, buf *[]float64) float64 {
	n := len(spec.Bins)
	vals := (*buf)[:0]
	for d := 3; d <= 16; d++ {
		if k-d >= 0 {
			vals = append(vals, spec.Mag(k-d))
		}
		if k+d < n {
			vals = append(vals, spec.Mag(k+d))
		}
	}
	*buf = vals
	if len(vals) == 0 {
		return 0
	}
	return dsp.SelectFloat(vals, len(vals)/2)
}

func strongestMag(peaks []dsp.Peak) float64 {
	var m float64
	for _, pk := range peaks {
		if pk.Mag > m {
			m = pk.Mag
		}
	}
	return m
}

// CountAcrossQueries runs the counting pipeline over several successive
// collision captures (§10: a reader's active window collects ~10). One
// capture is counted by the single-capture analysis, AnalyzeCapture.
func CountAcrossQueries(mcs []*rfsim.MultiCapture, p Params) (CountResult, error) {
	spikes, err := AnalyzeCaptures(mcs, p)
	if err != nil {
		return CountResult{}, err
	}
	return CountFromSpikes(spikes), nil
}
