package telemetry

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"runtime"
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

// readerReport is shaped like a reader's: spikes of three channels, one
// per antenna of the triangle array.
func readerReport(spikes int) *Report {
	r := &Report{ReaderID: 3, Seq: 9, Timestamp: time.Unix(0, 1439798401000000500), Count: spikes}
	for i := 0; i < spikes; i++ {
		r.Spikes = append(r.Spikes, SpikeRecord{
			FreqHz:    float64(1000 * i),
			Multiple:  i%3 == 0,
			Channels:  []complex128{complex(float64(i), 1), complex(2, float64(-i)), 3i},
			DecodedID: uint64(i),
		})
	}
	return r
}

// TestMarshalAllocatesOnce: Marshal reserves the payload's exact size.
// The old estimate, 64 bytes per spike, fell short of a three-channel
// spike's 66 once a report passed 20 spikes, and the buffer regrew.
func TestMarshalAllocatesOnce(t *testing.T) {
	r := readerReport(40)
	var b []byte
	got := testing.AllocsPerRun(100, func() {
		var err error
		if b, err = r.Marshal(); err != nil {
			t.Fatal(err)
		}
	})
	if got != 1 {
		t.Errorf("Marshal of a 40-spike report allocates %.0f objects, want 1", got)
	}
	if len(b) != r.size() || cap(b) < r.size() {
		t.Errorf("payload is %d bytes (cap %d), size says %d", len(b), cap(b), r.size())
	}
}

// TestUnmarshalReportAllocs: a parsed report is three objects — the
// report, its spikes, and one array all their channels share — whatever
// its spike count. One slice per spike's channels made it 22 at 20
// spikes.
func TestUnmarshalReportAllocs(t *testing.T) {
	b, err := readerReport(20).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		if _, err := UnmarshalReport(b); err != nil {
			t.Fatal(err)
		}
	})
	if got > 3 {
		t.Errorf("UnmarshalReport of a 20-spike report allocates %.0f objects, ceiling 3", got)
	}
}

// TestUnmarshalChannelsDoNotAlias: the spikes' channels share one array,
// but an append to one spike's never writes into the next spike's.
func TestUnmarshalChannelsDoNotAlias(t *testing.T) {
	b, err := readerReport(3).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	r, err := UnmarshalReport(b)
	if err != nil {
		t.Fatal(err)
	}
	want := r.Spikes[1].Channels[0]
	r.Spikes[0].Channels = append(r.Spikes[0].Channels, 99)
	if got := r.Spikes[1].Channels[0]; got != want {
		t.Errorf("append to spike 0 rewrote spike 1's first channel: %v, was %v", got, want)
	}
}

// TestReadBatchBuffered: through a bufio.Reader, ReadBatch reads the
// same frames as from the bare stream — frames that fit the buffer and
// frames that do not — and reports an end of stream inside a frame as
// io.ErrUnexpectedEOF and one between frames as io.EOF.
func TestReadBatchBuffered(t *testing.T) {
	var stream bytes.Buffer
	var want []*Report
	for _, spikes := range []int{0, 1, 20, 200, 3} { // 200 spikes: past the 4096-byte buffer
		r := readerReport(spikes)
		r.Seq = uint32(spikes) + 1
		want = append(want, r)
		if err := WriteBatch(&stream, []*Report{r}); err != nil {
			t.Fatal(err)
		}
	}
	raw := stream.Bytes()
	br := bufio.NewReaderSize(bytes.NewReader(raw), 4096)
	for i, w := range want {
		got, err := ReadBatch(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(got) != 1 || !reflect.DeepEqual(normalize(got[0]), normalize(w)) {
			t.Fatalf("frame %d reads back as %+v", i, got)
		}
	}
	if _, err := ReadBatch(br); err != io.EOF {
		t.Errorf("after the last frame: %v, want io.EOF", err)
	}
	for _, cut := range []int{4, headerSize, headerSize + 3, len(raw) - 1} {
		short := bufio.NewReaderSize(bytes.NewReader(raw[:cut]), 4096)
		var err error
		for err == nil {
			_, err = ReadBatch(short)
		}
		if err != io.ErrUnexpectedEOF {
			t.Errorf("stream cut at byte %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestReadBatchHeaderReservesNothing: a header that claims the largest
// frame and is followed by nothing must not reserve that frame. The
// payload buffer grows as bytes arrive; allocating the claimed length
// up front let nine bytes pin 16 MiB per connection.
func TestReadBatchHeaderReservesNothing(t *testing.T) {
	head := make([]byte, headerSize)
	le.PutUint32(head, Magic)
	head[4] = BatchVersion
	le.PutUint32(head[5:], MaxBatchFrameSize)
	for _, name := range []string{"plain", "bufio"} {
		var rd io.Reader = bytes.NewReader(head)
		if name == "bufio" {
			rd = bufio.NewReader(rd)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadBatch(rd)
		runtime.ReadMemStats(&after)
		if err != io.ErrUnexpectedEOF {
			t.Errorf("%s: header alone reads as %v, want io.ErrUnexpectedEOF", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: a bare header claiming %d bytes allocated %d", name, MaxBatchFrameSize, got)
		}
	}
}
