package core

import (
	"fmt"
	"math"

	"caraoke/internal/dsp"
	"caraoke/internal/phy"
	"caraoke/internal/rfsim"
)

// Successive interference cancellation (SIC) — an extension beyond the
// paper. Once a transponder's frame is decoded (§8), everything about
// its contribution to a capture is known except the per-capture
// channel, and that is measurable from its CFO spike. Reconstructing
// and subtracting the full signal — carrier *and* data sidebands —
// removes its share of the collision floor, letting the reader detect
// and decode transponders that were buried under a much stronger
// neighbor (the near-far regime where plain spike counting loses
// devices).

// cancel subtracts a decoded transponder from a capture in place and
// returns its channel estimate: ĥ is read off the spike at the wave's
// CFO, as the decoder reads it, and ĥ times the wave is subtracted
// through the synthesizer's own kernel. A capture with no spike there
// has nothing to cancel and is left as it is.
func cancel(capture []complex128, w *rfsim.Wave) complex128 {
	h := dsp.Goertzel(capture, w.CFO()/phy.SampleRate) * complex(2/float64(len(capture)), 0)
	if h != 0 {
		w.AddTo(capture, -h)
	}
	return h
}

// SICDecodeResult is the outcome of a full decode-and-cancel sweep.
type SICDecodeResult struct {
	Decoded map[float64]DecodeResult // by target CFO
	// Rounds is how many decode→cancel passes ran.
	Rounds int
}

// DecodeWithSIC decodes every detectable transponder in a shared set of
// collision captures, strongest first, cancelling each decoded signal
// from all captures before re-analyzing. Compared to DecodeAll it
// recovers weak transponders whose spikes only emerge once stronger
// neighbors are removed. maxRounds bounds the detect→decode→cancel
// loop; maxQueries bounds the total collisions fetched.
func DecodeWithSIC(src CaptureSource, p Params, maxRounds, maxQueries int) (SICDecodeResult, error) {
	var sc Scratch
	return sc.DecodeWithSIC(src, p, maxRounds, maxQueries)
}

// DecodeWithSIC is the pooled SIC sweep: spike detection runs through
// the scratch's buffers, each round replays the stored captures through
// DecodeAll for its one target, and each decoded frame becomes one
// rfsim.Wave, cancelled from every capture. Results are identical to the
// allocating entry point. The sweep keeps a copy of every capture it
// fetches, so src may hand it one buffer that each query overwrites.
func (sc *Scratch) DecodeWithSIC(src CaptureSource, p Params, maxRounds, maxQueries int) (SICDecodeResult, error) {
	if err := p.Validate(); err != nil {
		return SICDecodeResult{}, err
	}
	if maxRounds <= 0 || maxQueries <= 0 {
		return SICDecodeResult{}, fmt.Errorf("core: rounds and queries must be positive")
	}
	// Fetch the shared collisions once, each into the sweep's own
	// stream: the cancellation rewrites them.
	const n = phy.ResponseSamples
	flat := make([]complex128, maxQueries*n)
	captures := make([][]complex128, maxQueries)
	for q := range captures {
		c, err := src()
		if err == nil {
			err = checkLen(len(c))
		}
		if err != nil {
			return SICDecodeResult{}, fmt.Errorf("core: query %d: %w", q, err)
		}
		captures[q] = flat[q*n : (q+1)*n : (q+1)*n]
		copy(captures[q], c)
	}
	res := SICDecodeResult{Decoded: make(map[float64]DecodeResult)}
	mc := &rfsim.MultiCapture{Antennas: [][]complex128{nil}}
	for round := 0; round < maxRounds; round++ {
		res.Rounds = round + 1
		// Detect spikes on the (progressively cleaned) first capture.
		mc.Antennas[0] = captures[0]
		spikes, err := sc.AnalyzeCapture(mc, p)
		if err != nil {
			return res, err
		}
		// Strongest undecoded spike first.
		var target *Spike
		for i := range spikes {
			sp := &spikes[i]
			if _, done := alreadyDecoded(res.Decoded, sp.Freq); done {
				continue
			}
			if target == nil || sp.Mag > target.Mag {
				target = sp
			}
		}
		if target == nil {
			break // every visible spike decoded
		}
		next := 0
		replay := func() ([]complex128, error) {
			next++
			return captures[next-1], nil
		}
		// A decode error only says this target did not decode.
		decoded, _ := DecodeAll(replay, phy.SampleRate, []float64{target.Freq}, len(captures))
		dr, ok := decoded[target.Freq]
		if !ok {
			break // the strongest remaining spike is undecodable; stop
		}
		res.Decoded[target.Freq] = dr
		// Cancel it from every capture: one wave of the decoded frame,
		// scaled by each capture's own channel.
		env, err := phy.ModulateFrame(dr.Frame, phy.SampleRate)
		if err != nil {
			return res, err
		}
		w := rfsim.NewWave(env, target.Freq)
		for _, c := range captures {
			cancel(c, w)
		}
	}
	return res, nil
}

// alreadyDecoded reports whether a CFO within one bin of freq was
// decoded.
func alreadyDecoded(done map[float64]DecodeResult, freq float64) (float64, bool) {
	for f := range done {
		if math.Abs(f-freq) < 2000 {
			return f, true
		}
	}
	return 0, false
}
