package core

import (
	"fmt"
	"math"
	"math/cmplx"

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

// cancelEnvelope subtracts a transponder's known OOK envelope from a
// capture in place, estimating its per-capture channel from the spike
// at freq first: the reconstruction — the envelope carried at freq with
// that channel, a phasor recurrence renormalized every 1024 samples — is
// subtracted as it is synthesized, never materialized, and the SIC loop
// modulates each decoded frame once instead of once per capture. The
// unfused synthesize-then-subtract pair is its oracle in sic_test.go.
func cancelEnvelope(capture []complex128, env []float64, freq float64) (complex128, error) {
	if len(capture) == 0 {
		return 0, fmt.Errorf("core: empty capture")
	}
	spike := dsp.Goertzel(capture, freq/phy.SampleRate)
	h := spike * complex(2/float64(len(capture)), 0)
	if cmplx.Abs(h) == 0 {
		return 0, fmt.Errorf("core: no spike at %g Hz to cancel", freq)
	}
	rot := cmplx.Exp(complex(0, 2*math.Pi*freq/phy.SampleRate))
	w := complex(1, 0)
	for i := range capture {
		if i < len(env) && env[i] != 0 {
			capture[i] -= h * w
		}
		w *= rot
		if i&1023 == 1023 {
			w /= complex(cmplx.Abs(w), 0)
		}
	}
	return h, nil
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
// DecodeAll for its one target, and each decoded frame is modulated once
// and cancelled from all captures via the fused envelope subtraction.
// Results are identical to the allocating entry point.
func (sc *Scratch) DecodeWithSIC(src CaptureSource, p Params, maxRounds, maxQueries int) (SICDecodeResult, error) {
	if err := p.Validate(); err != nil {
		return SICDecodeResult{}, err
	}
	if maxRounds <= 0 || maxQueries <= 0 {
		return SICDecodeResult{}, fmt.Errorf("core: rounds and queries must be positive")
	}
	// Fetch the shared collisions once.
	var captures [][]complex128
	for q := 0; q < maxQueries; q++ {
		c, err := src()
		if err != nil {
			return SICDecodeResult{}, fmt.Errorf("core: query %d: %w", q, err)
		}
		captures = append(captures, c)
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
		// Cancel it from every capture: modulate the decoded frame once,
		// subtract its envelope from each.
		env, err := phy.ModulateFrame(dr.Frame, phy.SampleRate)
		if err != nil {
			return res, err
		}
		for _, c := range captures {
			if _, err := cancelEnvelope(c, env, target.Freq); err != nil {
				// Spike absent in this capture; nothing to cancel.
				continue
			}
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
