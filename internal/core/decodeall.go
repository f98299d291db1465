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
	return DecodeAllParallel(src, sampleRate, targetFreqs, maxQueries, 1)
}

// DecodeAllParallel is DecodeAll with the per-target work fanned out
// across workers goroutines (anything below one means serial). Captures
// are acquired serially (they model successive reader queries and must
// stay ordered), then each live target combines the new collision and
// re-attempts its decode — independent per-target work that fans out
// across the pool. Each target's decoder consumes the same captures in
// the same order at any worker count, and per-target outcomes land in
// index-addressed slots and merge after the barrier, so the decoded
// frames and per-id query counts do not depend on goroutine scheduling.
func DecodeAllParallel(src CaptureSource, sampleRate float64, targetFreqs []float64, maxQueries, workers int) (map[float64]DecodeResult, error) {
	if maxQueries <= 0 {
		return nil, fmt.Errorf("core: maxQueries %d must be positive", maxQueries)
	}
	if len(targetFreqs) == 0 {
		return nil, fmt.Errorf("core: no targets")
	}
	// One slice holds every target's chip accumulator and, after them,
	// one sweep buffer per worker; one more holds every target's
	// decoder and the slot its per-query outcome lands in.
	const chips = phy.FrameChips
	workers = max(1, min(workers, len(targetFreqs)))
	buf := make([]float64, (len(targetFreqs)+2*workers)*chips)
	sweeps := buf[len(targetFreqs)*chips:]
	type target struct {
		dec   Decoder
		done  bool
		frame *phy.Frame // this query's decode, if it succeeded
		err   error      // this query's failure, if fatal
	}
	targets := make([]target, len(targetFreqs))
	for i, f := range targetFreqs {
		targets[i].dec = makeDecoder(sampleRate, f, buf[i*chips:(i+1)*chips])
	}
	out := make(map[float64]DecodeResult, len(targetFreqs))
	remaining := len(targetFreqs)
	// One closure for the whole run: the per-query capture flows in via
	// the captured variable, so the query loop allocates nothing.
	var capture []complex128
	combine := func(w, i int) {
		t := &targets[i]
		t.frame, t.err = nil, nil
		if t.done {
			return
		}
		if err := t.dec.add(capture, sweeps[2*chips*w:2*chips*(w+1)]); err != nil {
			// This target's spike vanished (e.g. the car left) or the
			// capture is corrupt; keep the others going.
			return
		}
		f, err := t.dec.TryDecode()
		if err == nil {
			t.frame = f
		} else if !errors.Is(err, ErrNeedMoreCollisions) {
			t.err = err
		}
	}
	for q := 0; q < maxQueries && remaining > 0; q++ {
		var err error
		capture, err = src()
		if err != nil {
			return nil, fmt.Errorf("core: query %d: %w", q, err)
		}
		parallelForWorkers(len(targets), workers, combine)
		for i := range targets {
			t := &targets[i]
			if t.err != nil {
				return nil, t.err
			}
			if t.frame != nil {
				out[targetFreqs[i]] = DecodeResult{Frame: t.frame, Queries: t.dec.N()}
				t.done = true
				remaining--
			}
		}
	}
	if remaining > 0 {
		return out, fmt.Errorf("core: %d of %d ids undecoded after %d collisions: %w",
			remaining, len(targetFreqs), maxQueries, ErrNeedMoreCollisions)
	}
	return out, nil
}
