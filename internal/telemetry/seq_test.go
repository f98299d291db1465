package telemetry

import (
	"bytes"
	"testing"
	"time"
)

// TestSeqRoundTripExtremes: Seq is the epoch index the collector keys
// out-of-order ingest on, so the wire format must carry it exactly at
// the boundaries — including 0, which the store treats as "unset".
func TestSeqRoundTripExtremes(t *testing.T) {
	stamp := time.Date(2026, 8, 7, 9, 0, 0, 0, time.UTC)
	for _, seq := range []uint32{0, 1, 1<<31 - 1, 1<<32 - 1} {
		in := &Report{ReaderID: 3, Seq: seq, Timestamp: stamp, Count: 2}
		var buf bytes.Buffer
		if err := WriteBatch(&buf, []*Report{in}); err != nil {
			t.Fatal(err)
		}
		out, err := ReadBatch(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 || out[0].Seq != seq {
			t.Errorf("seq %d round-tripped to %+v", seq, out)
		}
	}
}

// TestBatchPreservesSeqOrder: a batch frame must deliver reports in
// the order queued — the per-reader uplink relies on this so a single
// connection preserves epoch order even when batches interleave with
// other readers' frames at the collector.
func TestBatchPreservesSeqOrder(t *testing.T) {
	stamp := time.Date(2026, 8, 7, 9, 0, 0, 0, time.UTC)
	var rs []*Report
	for seq := uint32(11); seq <= 15; seq++ {
		rs = append(rs, &Report{ReaderID: 1, Seq: seq, Timestamp: stamp})
	}
	var buf bytes.Buffer
	if err := WriteBatch(&buf, rs); err != nil {
		t.Fatal(err)
	}
	out, err := ReadBatch(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(rs) {
		t.Fatalf("batch returned %d reports, want %d", len(out), len(rs))
	}
	for i, r := range out {
		if r.Seq != rs[i].Seq {
			t.Errorf("report %d: seq %d, want %d (order must be preserved)", i, r.Seq, rs[i].Seq)
		}
	}
}
