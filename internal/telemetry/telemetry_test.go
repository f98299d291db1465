package telemetry

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func randomReport(rng *rand.Rand) *Report {
	r := &Report{
		ReaderID:  rng.Uint32(),
		Seq:       rng.Uint32(),
		Timestamp: time.Unix(0, rng.Int63()),
		Count:     rng.Intn(60),
	}
	for i := 0; i < rng.Intn(8); i++ {
		s := SpikeRecord{
			FreqHz:    rng.Float64() * 1.2e6,
			Multiple:  rng.Intn(2) == 1,
			DecodedID: rng.Uint64(),
		}
		for c := 0; c < 1+rng.Intn(3); c++ {
			s.Channels = append(s.Channels, complex(rng.NormFloat64(), rng.NormFloat64()))
		}
		r.Spikes = append(r.Spikes, s)
	}
	return r
}

func reportsEqual(a, b *Report) bool {
	if a.ReaderID != b.ReaderID || a.Seq != b.Seq || !a.Timestamp.Equal(b.Timestamp) ||
		a.Count != b.Count || len(a.Spikes) != len(b.Spikes) {
		return false
	}
	for i := range a.Spikes {
		x, y := a.Spikes[i], b.Spikes[i]
		if x.FreqHz != y.FreqHz || x.Multiple != y.Multiple || x.DecodedID != y.DecodedID ||
			len(x.Channels) != len(y.Channels) {
			return false
		}
		for c := range x.Channels {
			if x.Channels[c] != y.Channels[c] {
				return false
			}
		}
	}
	return true
}

func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		r := randomReport(rng)
		b, err := r.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalReport(b)
		if err != nil {
			t.Fatal(err)
		}
		if !reportsEqual(r, got) {
			t.Fatalf("round trip mismatch:\n%+v\n%+v", r, got)
		}
	}
}

func TestMarshalRoundTripProperty(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomReport(rng)
		b, err := r.Marshal()
		if err != nil {
			return false
		}
		got, err := UnmarshalReport(b)
		return err == nil && reportsEqual(r, got)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var buf bytes.Buffer
	var want []*Report
	for i := 0; i < 10; i++ {
		r := randomReport(rng)
		want = append(want, r)
		if err := WriteBatch(&buf, []*Report{r}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		got, err := ReadBatch(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(got) != 1 || !reportsEqual(want[i], got[0]) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
	if _, err := ReadBatch(&buf); !errors.Is(err, io.EOF) {
		t.Errorf("expected EOF after all frames, got %v", err)
	}
}

func TestReadFrameDetectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := randomReport(rng)
	var buf bytes.Buffer
	if err := WriteBatch(&buf, []*Report{r}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Flip a payload byte: CRC must catch it.
	if len(raw) > 20 {
		mut := append([]byte(nil), raw...)
		mut[12] ^= 0xFF
		if _, err := ReadBatch(bytes.NewReader(mut)); !errors.Is(err, ErrBadCRC) {
			t.Errorf("payload corruption: got %v, want ErrBadCRC", err)
		}
	}
	// Break the magic.
	mut := append([]byte(nil), raw...)
	mut[0] ^= 0xFF
	if _, err := ReadBatch(bytes.NewReader(mut)); !errors.Is(err, ErrBadMagic) {
		t.Errorf("magic corruption: got %v, want ErrBadMagic", err)
	}
	// Wrong version.
	mut = append([]byte(nil), raw...)
	mut[4] = 99
	if _, err := ReadBatch(bytes.NewReader(mut)); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version: got %v, want ErrBadVersion", err)
	}
	// Truncated stream.
	if _, err := ReadBatch(bytes.NewReader(raw[:len(raw)-2])); err == nil {
		t.Error("truncated frame accepted")
	}
	// Oversized length field.
	mut = append([]byte(nil), raw...)
	mut[5], mut[6], mut[7], mut[8] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, err := ReadBatch(bytes.NewReader(mut)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize: got %v, want ErrTooLarge", err)
	}
}

func TestUnmarshalRejectsTrailingBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r := randomReport(rng)
	b, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalReport(append(b, 0xAB)); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := UnmarshalReport(b[:len(b)/2]); err == nil {
		t.Error("truncated payload accepted")
	}
	if _, err := UnmarshalReport(nil); err == nil {
		t.Error("empty payload accepted")
	}
}

func TestMarshalLimits(t *testing.T) {
	r := &Report{Spikes: make([]SpikeRecord, maxSpikes+1)}
	if _, err := r.Marshal(); err == nil {
		t.Error("oversized spike list accepted")
	}
}
