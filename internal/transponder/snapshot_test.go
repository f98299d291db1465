package transponder

import (
	"math/rand"
	"testing"

	"caraoke/internal/geom"
	"caraoke/internal/phy"
)

// TestSnapshotSharesEnvelopeIndependentState: a snapshot is what the
// pipelined city harness hands to a reader goroutine — it must carry
// the same (immutable, cached) modulated envelope as the original so
// replies are bit-identical, while battery and position stay
// independent copies so concurrent epochs cannot race on them.
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
	if r1.Phase != r2.Phase || r1.CFO != r2.CFO {
		t.Errorf("replies diverge: phase %g/%g, CFO %g/%g", r1.Phase, r2.Phase, r1.CFO, r2.CFO)
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
