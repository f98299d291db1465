package main

import (
	"errors"
	"fmt"
	"time"

	"caraoke/internal/core"
	"caraoke/internal/telemetry"
)

// prepareReplayCount synthesises the windows; the timed region replays
// them through the reader's §5 chain with the simulator out of the way.
func prepareReplayCount(e *env) (*prepared, error) {
	ws, err := buildWindows(e, e.sz.countScenes)
	if err != nil {
		return nil, err
	}
	var scratch core.Scratch
	measure := func(tr *tracer, dur time.Duration) *outcome {
		o := &outcome{}
		took := make(pieces, len(ws)) // one identity per window
		var absErr, truth int
		first := true
		rounds(dur, func() error {
			for i, w := range ws {
				t0 := time.Now()
				op := tr.root(0, "harness", "window")
				s := tr.child(op, "core", "Scratch.AnalyzeCaptures")
				spikes, err := scratch.AnalyzeCaptures(w.mcs, w.sc.rd.Params, 1)
				cr := core.CountFromSpikes(spikes)
				tr.end(s)
				s = tr.child(op, "reader", "Reader.Report")
				rep := w.sc.rd.Report(cr, sceneEpoch)
				tr.end(s)
				s = tr.child(op, "telemetry", "Report.Marshal")
				b, merr := rep.Marshal()
				tr.end(s)
				tr.end(op)
				took.add(i, time.Since(t0))

				o.attempted++
				if err != nil || merr != nil {
					o.failed++
					o.problemf("window at %d devices: %v", w.sc.density, errors.Join(err, merr))
					continue
				}
				if first {
					absErr += abs(cr.Count - len(w.sc.truth))
					truth += len(w.sc.truth)
					if back, err := telemetry.UnmarshalReport(b); err != nil || back.Count != cr.Count || len(back.Spikes) != len(spikes) {
						o.failed++
						o.problemf("report of a %d-device window does not survive its wire form (%v)", w.sc.density, err)
					}
				}
			}
			first = false
			return nil
		})
		var refMs []float64 // the reference-density windows
		for i, w := range ws {
			if w.sc.density == e.sz.refDensity {
				refMs = append(refMs, 1e3*fastest(took[i]))
			}
		}
		o.opsPerS = took.rate(1)
		o.opMs = sum(refMs) / float64(len(refMs))
		o.recoveredShare = 1 - float64(absErr)/float64(max(truth, 1))
		return o
	}
	return &prepared{measure: measure, close: func() {}}, nil
}

// decodeScene is one scene's recorded collision stream and the CFOs the
// decoder is aimed at.
type decodeScene struct {
	sc     *scene
	freqs  []float64
	stream [][]complex128 // reference-antenna collisions, in query order
}

func buildDecodeScenes(e *env) ([]*decodeScene, error) {
	ws, err := buildWindows(e, e.sz.decodeScenes)
	if err != nil {
		return nil, err
	}
	var scratch core.Scratch
	var out []*decodeScene
	for _, w := range ws {
		spikes, err := scratch.AnalyzeCaptures(w.mcs, w.sc.rd.Params, 1)
		if err != nil {
			return nil, fmt.Errorf("analyzing a %d-device window: %w", w.sc.density, err)
		}
		ds := &decodeScene{sc: w.sc, freqs: singleTargets(spikes)}
		if len(ds.freqs) == 0 {
			continue // nothing to aim the decoder at
		}
		if ds.stream, err = w.sc.record(e.sz.decodeBudget); err != nil {
			return nil, err
		}
		out = append(out, ds)
	}
	if len(out) == 0 {
		return nil, errors.New("no scene has a decodable target")
	}
	return out, nil
}

// decode replays ds's stream into DecodeAll and sorts the decoded ids
// into those the scene really holds and those it does not.
func (ds *decodeScene) decode(tr *tracer, parent int) (res map[float64]core.DecodeResult, correct, wrong int, err error) {
	next := 0
	src := func() ([]complex128, error) {
		if next == len(ds.stream) {
			return nil, errors.New("recorded stream exhausted")
		}
		c := ds.stream[next]
		next++
		return c, nil
	}
	s := tr.child(parent, "core", "core.DecodeAll")
	res, err = core.DecodeAll(src, ds.sc.rd.Params.SampleRate, ds.freqs, len(ds.stream))
	tr.end(s)
	if err != nil && !errors.Is(err, core.ErrNeedMoreCollisions) {
		return nil, 0, 0, err
	}
	for _, r := range res {
		if ds.sc.truth[r.Frame.ID()] {
			correct++
		} else {
			wrong++
		}
	}
	return res, correct, wrong, nil
}

// wrongIDBudget is the share of decoded ids that may be wrong before a
// run fails its check. The frame's 16-bit CRC accepts a corrupted frame
// once in 65536 tries, and a scene makes a thousand-odd tries (targets ×
// collisions), most of them a few bit errors from the truth — so a wrong
// id every few dozen scenes is the system working as specified; it
// counts against recovered_share, not as a failed operation. More than
// this is a decoder fault.
const wrongIDBudget = 0.02

// checkWrongIDs fails o when wrong ids exceed the budget. One wrong id is
// always within it: a city round decodes under fifty ids, of which the
// share is less than one id, and one seed in twenty has a city whose
// round yields one.
func checkWrongIDs(o *outcome, what string, wrong, decoded int) {
	if wrong > 1 && float64(wrong) > wrongIDBudget*float64(decoded) {
		o.failed += wrong
		o.problemf("%s: %d of %d decoded ids are not in their scene's truth", what, wrong, decoded)
	}
}

func prepareReplayDecode(e *env) (*prepared, error) {
	scenes, err := buildDecodeScenes(e)
	if err != nil {
		return nil, err
	}
	measure := func(tr *tracer, dur time.Duration) *outcome {
		o := &outcome{}
		took := make(pieces, len(scenes)) // one identity per scene
		var targets, correct, wrong int
		rounds(dur, func() error {
			for i, ds := range scenes {
				t0 := time.Now()
				op := tr.root(0, "harness", "scene")
				_, ok, bad, err := ds.decode(tr, op)
				tr.end(op)
				took.add(i, time.Since(t0))
				targets += len(ds.freqs)
				if err != nil {
					o.failed += len(ds.freqs)
					o.problemf("DecodeAll at %d devices: %v", ds.sc.density, err)
					continue
				}
				correct += ok
				wrong += bad
			}
			return nil
		})
		o.attempted = targets
		checkWrongIDs(o, "replay_decode", wrong, correct+wrong)
		// The rate counts ids attempted, not ids recovered: how many of a
		// seed's targets are recoverable is recovered_share's to say, and
		// folding it in here would double the seed's weight. The latency is
		// per id too: how many single-occupancy spikes a 24-device scene has
		// is the seed's doing.
		seconds, _ := took.total()
		perRound, refIDs := 0, 0
		var refSeconds float64
		for i, ds := range scenes {
			perRound += len(ds.freqs)
			if ds.sc.density == e.sz.refDensity {
				refSeconds += fastest(took[i])
				refIDs += len(ds.freqs)
			}
		}
		o.opsPerS = float64(perRound) / seconds
		o.opMs = 1e3 * refSeconds / float64(refIDs)
		o.recoveredShare = float64(correct) / float64(targets)
		return o
	}
	return &prepared{measure: measure, close: func() {}}, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
