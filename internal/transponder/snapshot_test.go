package transponder

import (
	"math/rand"
	"sync"
	"testing"

	"caraoke/internal/geom"
	"caraoke/internal/phy"
	"caraoke/internal/rfsim"
)

// TestSnapshotSharesEnvelopeIndependentState: a snapshot is what the
// pipelined city harness hands to a reader goroutine — it must carry
// the same (immutable, cached) modulated envelope and reply waveform as
// the original so replies are bit-identical and no copy rebuilds them,
// while battery and position stay independent copies so concurrent
// epochs cannot race on them.
func TestSnapshotSharesEnvelopeIndependentState(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	d := NewRandomDevice(DefaultPopulationParams(), 11, geom.V(3, 4, 0), rng)

	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := d.Reply(phy.BandLow, 4e6, 0, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := snap.Reply(phy.BandLow, 4e6, 0, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if &r1.Envelope[0] != &r2.Envelope[0] {
		t.Error("snapshot re-modulated the envelope instead of sharing the cache")
	}
	if r1.Wave == nil || r1.Wave != r2.Wave {
		t.Error("snapshot rebuilt the reply waveform instead of sharing the cache")
	}
	if r1.Phase != r2.Phase {
		t.Errorf("replies diverge: phase %g/%g", r1.Phase, r2.Phase)
	}

	// Snapshots of one device reply from different goroutines, as
	// pipelined epochs do: each reads the shared caches and writes only
	// its own copy (go test -race holds that).
	var waves [4]*rfsim.Wave
	var wg sync.WaitGroup
	for g := range waves {
		cp, err := d.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for range 10 {
				tx, err := cp.Reply(phy.BandLow, 4e6, 0, rng)
				if err != nil {
					t.Error(err)
					return
				}
				waves[g] = tx.Wave
			}
		}()
	}
	wg.Wait()
	for g, w := range waves {
		if w != r1.Wave {
			t.Errorf("goroutine %d replied with its own waveform", g)
		}
	}

	// Battery drain on the snapshot must not reach the original.
	before := d.RepliesLeft
	snap.RepliesLeft = 1
	if _, err := snap.Reply(phy.BandLow, 4e6, 0, rng); err != nil {
		t.Fatal(err)
	}
	if snap.Alive() {
		t.Error("snapshot battery not drained")
	}
	if d.RepliesLeft != before {
		t.Errorf("snapshot reply drained the original: %d -> %d", before, d.RepliesLeft)
	}

	// Position updates on the original must not move earlier snapshots.
	old := snap.Pos
	d.Pos = geom.V(99, 99, 0)
	if snap.Pos != old {
		t.Error("snapshot position aliases the original")
	}
}

// TestSnapshotDeadDevice: a dead device's snapshot copies the empty
// battery, so its Reply fails exactly like the original's — the
// pipelined path sees the same dead-transponder behavior lockstep
// does.
func TestSnapshotDeadDevice(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	d := NewRandomDevice(DefaultPopulationParams(), 12, geom.V(0, 0, 0), rng)
	d.RepliesLeft = 0
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Alive() {
		t.Error("snapshot of a dead device reports alive")
	}
	if _, err := snap.Reply(phy.BandLow, 4e6, 0, rng); err == nil {
		t.Error("dead snapshot replied")
	}
}
