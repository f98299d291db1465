package core

import (
	"errors"
	"fmt"

	"caraoke/internal/phy"
)

// DecodeAll recovers every colliding transponder's frame from one
// shared sequence of collision captures. §12.4 makes the point this
// function implements: "50 ms is also the time to decode all 10
// transponders since one does not need to collect new collisions for
// individual transponders. One only needs to compensate for the CFO
// and channel of each of the transponders differently."
//
// The reader keeps querying (up to maxQueries); after each new
// collision every still-undecoded target re-attempts its decode from
// the shared set. The result maps each requested CFO to its decode,
// with Queries recording how many collisions that id needed.
func DecodeAll(src CaptureSource, sampleRate float64, targetFreqs []float64, maxQueries int) (map[float64]DecodeResult, error) {
	if maxQueries <= 0 {
		return nil, fmt.Errorf("core: maxQueries %d must be positive", maxQueries)
	}
	if len(targetFreqs) == 0 {
		return nil, fmt.Errorf("core: no targets")
	}
	// One slice holds every target's chip accumulator and, after them,
	// the sweep buffer they share.
	const chips = phy.FrameChips
	buf := make([]float64, (len(targetFreqs)+2)*chips)
	sweep := buf[len(targetFreqs)*chips:]
	type target struct {
		dec  Decoder
		done bool
	}
	targets := make([]target, len(targetFreqs))
	for i, f := range targetFreqs {
		targets[i].dec = makeDecoder(sampleRate, f, buf[i*chips:(i+1)*chips])
	}
	out := make(map[float64]DecodeResult, len(targetFreqs))
	remaining := len(targetFreqs)
	for q := 0; q < maxQueries && remaining > 0; q++ {
		capture, err := src()
		if err != nil {
			return nil, fmt.Errorf("core: query %d: %w", q, err)
		}
		for i := range targets {
			t := &targets[i]
			if t.done {
				continue
			}
			if err := t.dec.add(capture, sweep); err != nil {
				// This target's spike vanished (e.g. the car left) or the
				// capture is corrupt; keep the others going.
				continue
			}
			frame, err := t.dec.TryDecode()
			if err == nil {
				out[targetFreqs[i]] = DecodeResult{Frame: frame, Queries: t.dec.N()}
				t.done = true
				remaining--
			} else if !errors.Is(err, ErrNeedMoreCollisions) {
				return nil, err
			}
		}
	}
	if remaining > 0 {
		return out, fmt.Errorf("core: %d of %d ids undecoded after %d collisions: %w",
			remaining, len(targetFreqs), maxQueries, ErrNeedMoreCollisions)
	}
	return out, nil
}
