package telemetry

import (
	"bufio"
	"bytes"
	"math"
	"testing"
	"time"
)

// fuzzSeedReports are the hand-picked shapes the fuzzer mutates from:
// empty (a reader's first seq and nothing else), typical, and
// edge-of-format reports. They are also marshaled
// into the checked-in seed corpus under testdata/fuzz (regenerate with
// `go run gen_seed_corpus.go` from this directory).
func fuzzSeedReports() []*Report {
	return []*Report{
		{Seq: 1},
		{
			ReaderID:  7,
			Seq:       42,
			Timestamp: time.Date(2015, 8, 17, 8, 0, 1, 500, time.UTC),
			Count:     3,
			Spikes: []SpikeRecord{
				{FreqHz: 214.5e3, Multiple: false, Channels: []complex128{complex(0.5, -0.25), complex(-1, 2)}},
				{FreqHz: 812.25e3, Multiple: true, DecodedID: 0xE5A1910DB480015, Channels: []complex128{complex(3, 4)}},
			},
		},
		{
			ReaderID:  math.MaxUint32,
			Seq:       math.MaxUint32,
			Timestamp: time.Unix(0, math.MinInt64),
			Count:     -1,
			Spikes:    []SpikeRecord{{FreqHz: math.Inf(1), Channels: []complex128{complex(math.NaN(), math.Inf(-1))}}},
		},
	}
}

// FuzzReportRoundTrip feeds arbitrary bytes to the report parser: it
// must never panic, it must refuse a payload whose Seq (bytes 4–7) is
// 0, and any payload it accepts must survive a marshal → unmarshal →
// marshal cycle byte-identically (byte-level comparison makes the check
// NaN-safe).
func FuzzReportRoundTrip(f *testing.F) {
	for _, r := range fuzzSeedReports() {
		b, err := r.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := UnmarshalReport(data)
		if err != nil {
			return // rejected input: fine, as long as it didn't panic
		}
		if r.Seq == 0 {
			t.Fatalf("accepted a report with seq 0: %+v", r)
		}
		out, err := r.Marshal()
		if err != nil {
			t.Fatalf("accepted payload fails to re-marshal: %v", err)
		}
		r2, err := UnmarshalReport(out)
		if err != nil {
			t.Fatalf("round-tripped payload rejected: %v", err)
		}
		out2, err := r2.Marshal()
		if err != nil {
			t.Fatalf("second marshal failed: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("marshal is not a fixed point:\n first: %x\nsecond: %x", out, out2)
		}
	})
}

// FuzzFrameRoundTrip drives the framed wire format the collector
// actually reads (magic, version, length, batch payload, CRC): it must
// never panic, a frame of any version but BatchVersion must be
// rejected, whatever ReadBatch accepts must re-frame to an equal report
// list, and a bufio.Reader — one that holds the frame, one too small
// to — changes nothing ReadBatch returns.
func FuzzFrameRoundTrip(f *testing.F) {
	seeds := fuzzSeedReports()
	frames := [][]*Report{nil, seeds}
	for _, r := range seeds {
		frames = append(frames, []*Report{r})
	}
	for _, rs := range frames {
		var buf bytes.Buffer
		if err := WriteBatch(&buf, rs); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(v1Frame(f, seeds[1]))
	f.Add([]byte{0x41, 0x52, 0x41, 0x43}) // magic, truncated
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := ReadBatch(bytes.NewReader(data))
		for _, size := range []int{16, 4096} {
			buffered, berr := ReadBatch(bufio.NewReaderSize(bytes.NewReader(data), size))
			if (berr == nil) != (err == nil) {
				t.Fatalf("%d-byte bufio.Reader: error %v, bare stream %v", size, berr, err)
			}
			sameReports(t, rs, buffered)
		}
		if err != nil {
			return
		}
		if data[4] != BatchVersion {
			t.Fatalf("accepted a version-%d frame", data[4])
		}
		var buf bytes.Buffer
		if err := WriteBatch(&buf, rs); err != nil {
			t.Fatalf("accepted frame fails to re-frame: %v", err)
		}
		rs2, err := ReadBatch(&buf)
		if err != nil {
			t.Fatalf("re-framed batch rejected: %v", err)
		}
		sameReports(t, rs, rs2)
	})
}

// sameReports fails t unless a and b marshal to the same bytes, report
// by report.
func sameReports(t *testing.T, a, b []*Report) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%d reports, then %d", len(a), len(b))
	}
	for i := range a {
		b1, err1 := a[i].Marshal()
		b2, err2 := b[i].Marshal()
		if err1 != nil || err2 != nil || !bytes.Equal(b1, b2) {
			t.Fatalf("report %d differs: %x vs %x (%v, %v)", i, b1, b2, err1, err2)
		}
	}
}
