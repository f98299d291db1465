package core

import "caraoke/internal/dsp"

// Scratch owns every reusable buffer of the capture-analysis and decode
// hot path: the DSP plan (spectral scratch), per-capture spectrum rows
// for the multi-query averager, a first-half transform row and its
// peak bins for the refinement, the channel-estimate arena backing
// Spike.Channels, and the probe bank of the per-peak gates. A zero
// Scratch is ready to use; buffers grow on first use and are retained,
// so the steady state — every capture one response long, epoch after
// epoch — allocates nothing.
//
// Contract: results returned by Scratch methods (the []Spike slice AND
// the Channels slices inside each Spike) are backed by scratch memory
// and remain valid only until the next call on the same Scratch.
// Callers that retain spikes past that point — e.g. queuing them into
// asynchronous telemetry — must deep-copy. The package-level
// AnalyzeCapture / AnalyzeCaptures wrappers run on a throwaway Scratch
// and therefore hand ownership to the caller.
//
// A Scratch is NOT safe for concurrent use: a reader analyzes and
// decodes on its own goroutine, one window at a time, with its own
// Scratch.
type Scratch struct {
	plan dsp.Plan     // DSP buffers
	spec dsp.Spectrum // single-capture spectrum

	specs  []dsp.Spectrum // per-capture spectra (multi-query averaging)
	half   []complex128   // one capture's first-half DFT (refinement)
	firsts []complex128   // its bins at each peak: [peak·K + capture]
	acc    []float64      // power accumulator across captures
	avg    dsp.Spectrum   // RMS-averaged spectrum

	chans  []complex128 // arena backing Spike.Channels
	spikes []Spike      // result buffer

	job peakJob // shared inputs of the per-peak stage (cleared after use)

	bank    dsp.ProbeBank // per-peak gates: phasor, de-rotation and fold buffers
	freqs   []float64     // per-capture refined frequencies, for the median
	centres []float64     // |DFT| at the refined frequency: per capture, or per spike of a lone capture
	vals    []float64     // localFloor neighborhood magnitudes
}

// grow returns x resized to length n, reusing the backing array when
// the capacity suffices. Contents are unspecified.
func grow[T any](x []T, n int) []T {
	if cap(x) < n {
		return make([]T, n)
	}
	return x[:n]
}
