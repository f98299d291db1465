package telemetry

import (
	"bytes"
	"hash/crc32"
	"strings"
	"testing"
	"time"
)

// TestSeqRoundTripExtremes: Seq is the epoch index the collector keys
// out-of-order ingest on, so the wire format must carry it exactly at
// the boundaries. A reader's seqs count from 1: a report with Seq 0 is
// refused by every encoder before it writes a byte, and by ReadBatch
// when a stream carries one anyway.
func TestSeqRoundTripExtremes(t *testing.T) {
	stamp := time.Date(2026, 8, 7, 9, 0, 0, 0, time.UTC)
	zero := &Report{ReaderID: 3, Timestamp: stamp}
	var buf bytes.Buffer
	if err := WriteBatch(&buf, []*Report{zero}); err == nil || buf.Len() != 0 {
		t.Errorf("WriteBatch of a seq-0 report: error %v, %d bytes written", err, buf.Len())
	}
	prefix := []byte("kept")
	if b, err := AppendBatch(prefix, []*Report{{ReaderID: 3, Seq: 1}, zero}); err == nil || string(b) != "kept" {
		t.Errorf("AppendBatch with a seq-0 report: error %v, buffer %q", err, b)
	}
	if b, err := zero.Marshal(); err == nil || b != nil {
		t.Errorf("Marshal of a seq-0 report: error %v, %d bytes", err, len(b))
	}
	if out, err := ReadBatch(bytes.NewReader(seqZeroFrame(t, zero))); err == nil {
		t.Errorf("a seq-0 report read back as %+v", out)
	} else if !strings.Contains(err.Error(), "seq 0") {
		t.Errorf("a seq-0 frame refused for another reason: %v", err)
	}
	for _, seq := range []uint32{1, 1<<31 - 1, 1<<32 - 1} {
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

// seqZeroFrame is one frame carrying r with its Seq patched to 0 and
// the CRC recomputed: bytes no encoder writes, but a stream may carry.
func seqZeroFrame(tb testing.TB, r *Report) []byte {
	tb.Helper()
	one := *r
	one.Seq = 1
	b, err := AppendBatch(nil, []*Report{&one})
	if err != nil {
		tb.Fatal(err)
	}
	const seqAt = headerSize + 4 + 4 + 4 // report count, length prefix, reader id
	le.PutUint32(b[seqAt:], 0)
	le.PutUint32(b[len(b)-4:], crc32.Checksum(b[headerSize:len(b)-4], castagnoli))
	return b
}
