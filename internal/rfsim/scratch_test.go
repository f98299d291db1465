package rfsim

import (
	"math/rand"
	"testing"
)

// TestCaptureScratchBitIdentical: reusing a SynthScratch across
// captures of different scenes must be bit-identical to scratchless
// synthesis — the reuse only recycles stage-one buffers, never their
// contents. This is the invariant that lets each pipelined reader keep
// one scratch for its whole life.
func TestCaptureScratchBitIdentical(t *testing.T) {
	scratch := NewSynthScratch()
	// Growing scene sizes exercise both the grow path and the
	// larger-than-needed reuse path of the scratch buffers.
	for _, n := range []int{24, 8, 40} {
		for _, workers := range []int{1, 4} {
			cfg, arr, txs := parallelScene(t, int64(300+n), n)
			cfg.NoiseSigma = 1e-5
			cfg.Workers = workers

			ref, err := Capture(cfg, arr, txs, rand.New(rand.NewSource(9)))
			if err != nil {
				t.Fatal(err)
			}
			scfg := cfg
			scfg.Scratch = scratch
			got, err := Capture(scfg, arr, txs, rand.New(rand.NewSource(9)))
			if err != nil {
				t.Fatal(err)
			}
			for a := range ref.Antennas {
				for s := range ref.Antennas[a] {
					if got.Antennas[a][s] != ref.Antennas[a][s] {
						t.Fatalf("n=%d workers=%d: antenna %d sample %d: %v != %v",
							n, workers, a, s, got.Antennas[a][s], ref.Antennas[a][s])
					}
				}
			}
		}
	}
}

// TestCaptureScratchDoesNotAliasOutput: the antenna buffers a capture
// returns escape to the decoder (MeasureCollision retains them via
// Reference), so the scratch must never hand them back to a later
// capture. Two captures with the same scratch must not share antenna
// storage, and the first capture's samples must survive the second.
func TestCaptureScratchDoesNotAliasOutput(t *testing.T) {
	scratch := NewSynthScratch()
	cfg, arr, txs := parallelScene(t, 411, 12)
	cfg.Scratch = scratch

	first, err := Capture(cfg, arr, txs, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	saved := make([]complex128, len(first.Antennas[0]))
	copy(saved, first.Antennas[0])

	second, err := Capture(cfg, arr, txs, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if &first.Antennas[0][0] == &second.Antennas[0][0] {
		t.Fatal("scratch reuse aliased antenna buffers across captures")
	}
	for s := range saved {
		if first.Antennas[0][s] != saved[s] {
			t.Fatalf("sample %d of earlier capture overwritten by scratch reuse", s)
		}
	}
}
