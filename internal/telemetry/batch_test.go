package telemetry

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"
)

func batchReports(n int) []*Report {
	rs := make([]*Report, 0, n)
	for i := 0; i < n; i++ {
		rs = append(rs, &Report{
			ReaderID:  uint32(i + 1),
			Seq:       uint32(100 + i),
			Timestamp: time.Date(2015, 8, 17, 8, 0, i, 0, time.UTC),
			Count:     i,
			Spikes: []SpikeRecord{
				{FreqHz: 50e3 * float64(i+1), Multiple: i%2 == 0,
					Channels:  []complex128{complex(float64(i), 1), 2 - 3i},
					DecodedID: uint64(i) << 16},
			},
		})
	}
	return rs
}

func TestBatchRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7} {
		rs := batchReports(n)
		var buf bytes.Buffer
		if err := WriteBatch(&buf, rs); err != nil {
			t.Fatal(err)
		}
		got, err := ReadBatch(&buf)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: read %d reports", n, len(got))
		}
		for i := range rs {
			if !reflect.DeepEqual(normalize(rs[i]), normalize(got[i])) {
				t.Errorf("report %d mismatch:\nsent %+v\ngot  %+v", i, rs[i], got[i])
			}
		}
	}
}

// normalize strips representation-only differences (nil vs empty
// slices, timestamp wall/monotonic internals) before DeepEqual.
func normalize(r *Report) Report {
	c := *r
	c.Timestamp = time.Unix(0, r.Timestamp.UnixNano())
	if len(c.Spikes) == 0 {
		c.Spikes = nil
	}
	return c
}

// v1Frame is r's frame under the retired version byte 1 — valid in
// everything else, so only the version check can refuse it.
func v1Frame(t testing.TB, r *Report) []byte {
	var buf bytes.Buffer
	if err := WriteBatch(&buf, []*Report{r}); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	frame[4] = 1
	return frame
}

// TestReadBatchRefusesVersion1: a version-1 header is refused on the
// header alone. The pipe delivers the nine header bytes and then
// nothing, so a reader that asked for a single payload byte before
// deciding would block until the test times out.
func TestReadBatchRefusesVersion1(t *testing.T) {
	frame := v1Frame(t, batchReports(1)[0])
	pr, pw := io.Pipe()
	defer pr.Close() // releases both goroutines whatever happens
	go pw.Write(frame[:headerSize])
	errc := make(chan error, 1)
	go func() {
		_, err := ReadBatch(pr)
		errc <- err
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrBadVersion) {
			t.Fatalf("version-1 frame: %v, want ErrBadVersion", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ReadBatch requested payload bytes of a version-1 frame")
	}
	// The whole frame on a plain stream is refused the same way.
	if _, err := ReadBatch(bytes.NewReader(frame)); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("version-1 frame: %v, want ErrBadVersion", err)
	}
}

// TestBatchOfOneGolden pins the bytes of a one-report frame — what
// Client.Send puts on the wire — so the format cannot drift silently:
// header (magic "CARA" little-endian, version 2, payload length), the
// payload (report count 1, report length, report) and its CRC-32C.
func TestBatchOfOneGolden(t *testing.T) {
	r := &Report{
		ReaderID:  7,
		Seq:       42,
		Timestamp: time.Unix(0, 1439798401000000500),
		Count:     3,
		Spikes: []SpikeRecord{
			{FreqHz: 214.5e3, Channels: []complex128{complex(0.5, -0.25), complex(-1, 2)}},
			{FreqHz: 812.25e3, Multiple: true, DecodedID: 0xE5A1910DB480015, Channels: []complex128{complex(3, 4)}},
		},
	}
	const golden = "415241430274000000" + // magic, version 2, payload length 0x74
		"010000006c000000" + // 1 report of 0x6c bytes
		"070000002a000000f4cbc76f0431fb13030000000200000000000000202f0a4100000000000000000002000000000000e03f000000000000d0bf000000000000f0bf000000000000004000000000b4c9284101150048db10195a0e0100000000000008400000000000001040" +
		"4429de0f" // CRC-32C of the payload
	var buf bytes.Buffer
	if err := WriteBatch(&buf, []*Report{r}); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != golden {
		t.Fatalf("one-report frame drifted:\n got %s\nwant %s", got, golden)
	}
	raw, _ := hex.DecodeString(golden)
	got, err := ReadBatch(bytes.NewReader(raw))
	if err != nil || len(got) != 1 || !reflect.DeepEqual(normalize(got[0]), normalize(r)) {
		t.Fatalf("golden frame reads back as %+v (%v)", got, err)
	}
}

func TestBatchCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBatch(&buf, batchReports(2)); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[len(b)/2] ^= 0x40
	if _, err := ReadBatch(bytes.NewReader(b)); err == nil {
		t.Fatal("corrupted batch frame accepted")
	}
}

func TestBatchLimits(t *testing.T) {
	if err := WriteBatch(&bytes.Buffer{}, make([]*Report, MaxBatchReports+1)); err == nil {
		t.Error("oversized batch accepted")
	}
}
