// Package telemetry defines the wire protocol between Caraoke readers
// and the city backend. A reader needs to convey only "the results of
// processing one query (i.e., the channels and CFOs)" — a few kilobits
// (§12.5 footnote 15) — far less than the per-frame overhead at city
// scale, so a duty-cycled reader coalesces an epoch's (or several
// epochs') reports into one frame instead of paying a TCP segment and a
// header per report. There is one frame format, the report batch:
//
//	magic u32 | version u8 (= 2) | payload length u32 | payload | CRC-32C(payload) u32
//	payload = report count u32, then per report: length u32 | report
//
// all little-endian. A lone report travels as a batch of one. Version 1,
// the retired single-report frame, is refused like any unknown version.
package telemetry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"
)

// Protocol constants.
const (
	Magic = 0x43415241 // "CARA"
	// BatchVersion is the version byte of the one frame format.
	BatchVersion = 2
	// MaxFrameSize bounds one report's payload; a report with dozens of
	// spikes is well under this.
	MaxFrameSize = 1 << 16
	// MaxBatchReports bounds the reports per frame.
	MaxBatchReports = 4096
	// MaxBatchFrameSize bounds a frame's payload.
	MaxBatchFrameSize = 1 << 24
	// maxSpikes bounds the per-report spike count (the CFO band fits
	// at most 615 distinguishable transponders).
	maxSpikes = 1024
	// headerSize is magic, version byte and payload length.
	headerSize = 9
)

// Errors.
var (
	ErrBadMagic   = errors.New("telemetry: bad frame magic")
	ErrBadVersion = errors.New("telemetry: unsupported protocol version")
	ErrBadCRC     = errors.New("telemetry: frame CRC mismatch")
	ErrTooLarge   = errors.New("telemetry: frame exceeds size limit")
)

// SpikeRecord is one transponder's measurement within a report.
type SpikeRecord struct {
	FreqHz   float64      // CFO above the reader LO
	Multiple bool         // §5 dual-window test found ≥2 in the bin
	Channels []complex128 // per-antenna channel estimates
	// DecodedID is the transponder id if the reader ran the §8
	// collision decoder on this spike; zero otherwise.
	DecodedID uint64
}

// Report is one query's processed output from one reader.
type Report struct {
	ReaderID  uint32
	Seq       uint32
	Timestamp time.Time // reader-local (NTP-disciplined) time
	Count     int       // §5 estimate for this query
	Spikes    []SpikeRecord
}

// le is the byte order of every integer on the wire.
var le = binary.LittleEndian

func appendF64(b []byte, v float64) []byte {
	return le.AppendUint64(b, math.Float64bits(v))
}

// Marshal serializes the report payload (without framing).
func (r *Report) Marshal() ([]byte, error) {
	return r.appendTo(make([]byte, 0, r.sizeHint()))
}

// sizeHint is a cheap estimate of the payload size, an upper bound for
// the usual report (up to two antennas per spike).
func (r *Report) sizeHint() int { return 64 + len(r.Spikes)*64 }

// appendTo appends the report payload to b.
func (r *Report) appendTo(b []byte) ([]byte, error) {
	if len(r.Spikes) > maxSpikes {
		return nil, fmt.Errorf("telemetry: %d spikes exceeds limit %d", len(r.Spikes), maxSpikes)
	}
	b = le.AppendUint32(b, r.ReaderID)
	b = le.AppendUint32(b, r.Seq)
	b = le.AppendUint64(b, uint64(r.Timestamp.UnixNano()))
	b = le.AppendUint32(b, uint32(r.Count))
	b = le.AppendUint32(b, uint32(len(r.Spikes)))
	for i := range r.Spikes {
		s := &r.Spikes[i]
		b = appendF64(b, s.FreqHz)
		if s.Multiple {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = le.AppendUint64(b, s.DecodedID)
		if len(s.Channels) > 255 {
			return nil, fmt.Errorf("telemetry: %d channels exceeds limit", len(s.Channels))
		}
		b = append(b, byte(len(s.Channels)))
		for _, h := range s.Channels {
			b = appendF64(b, real(h))
			b = appendF64(b, imag(h))
		}
	}
	return b, nil
}

// UnmarshalReport parses a report payload.
func UnmarshalReport(b []byte) (*Report, error) {
	rd := byteReader{buf: b}
	r := &Report{}
	r.ReaderID = rd.u32()
	r.Seq = rd.u32()
	r.Timestamp = time.Unix(0, int64(rd.u64()))
	r.Count = int(int32(rd.u32()))
	n := rd.u32()
	if rd.err != nil {
		return nil, rd.err
	}
	if n > maxSpikes {
		return nil, fmt.Errorf("telemetry: spike count %d exceeds limit", n)
	}
	r.Spikes = make([]SpikeRecord, 0, n)
	for i := uint32(0); i < n; i++ {
		var s SpikeRecord
		s.FreqHz = rd.f64()
		s.Multiple = rd.u8() != 0
		s.DecodedID = rd.u64()
		nc := int(rd.u8())
		if rd.err != nil {
			return nil, rd.err
		}
		s.Channels = make([]complex128, 0, nc)
		for c := 0; c < nc; c++ {
			re := rd.f64()
			im := rd.f64()
			s.Channels = append(s.Channels, complex(re, im))
		}
		if rd.err != nil {
			return nil, rd.err
		}
		r.Spikes = append(r.Spikes, s)
	}
	if len(rd.buf) != rd.off {
		return nil, fmt.Errorf("telemetry: %d trailing bytes in report", len(rd.buf)-rd.off)
	}
	return r, nil
}

type byteReader struct {
	buf []byte
	off int
	err error
}

func (r *byteReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	out := r.buf[r.off : r.off+n]
	r.off += n
	return out
}

func (r *byteReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *byteReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return le.Uint32(b)
}

func (r *byteReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return le.Uint64(b)
}

func (r *byteReader) f64() float64 { return math.Float64frombits(r.u64()) }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteBatch writes one frame carrying rs. The frame is built in one
// buffer — header reserved up front, each report appended behind its
// length prefix — and goes out in a single Write: one syscall, and —
// load-bearing for the fault-injection layer — a frame is atomic at the
// net.Conn boundary, so an injected drop or kill loses or duplicates
// whole frames and can never desynchronize the stream mid-frame.
func WriteBatch(w io.Writer, rs []*Report) error {
	if len(rs) > MaxBatchReports {
		return fmt.Errorf("telemetry: %d reports exceeds batch limit %d", len(rs), MaxBatchReports)
	}
	size := headerSize + 4 + 4
	for _, r := range rs {
		size += 4 + r.sizeHint()
	}
	frame := make([]byte, headerSize, size)
	frame = le.AppendUint32(frame, uint32(len(rs)))
	for i, r := range rs {
		prefix := len(frame)
		frame = le.AppendUint32(frame, 0)
		var err error
		if frame, err = r.appendTo(frame); err != nil {
			return fmt.Errorf("telemetry: batch report %d: %w", i, err)
		}
		n := len(frame) - prefix - 4
		if n > MaxFrameSize {
			return fmt.Errorf("telemetry: batch report %d: %w", i, ErrTooLarge)
		}
		le.PutUint32(frame[prefix:], uint32(n))
	}
	payload := frame[headerSize:]
	if len(payload) > MaxBatchFrameSize {
		return ErrTooLarge
	}
	le.PutUint32(frame[0:], Magic)
	frame[4] = BatchVersion
	le.PutUint32(frame[5:], uint32(len(payload)))
	frame = le.AppendUint32(frame, crc32.Checksum(payload, castagnoli))
	_, err := w.Write(frame)
	return err
}

// ReadBatch reads the next frame, verifies its CRC and returns its
// reports — the ingest entry point of a collector. A version other
// than BatchVersion is refused straight after the header, before the
// payload length is trusted or a byte of payload is requested, and the
// length is checked against MaxBatchFrameSize before the payload
// buffer is allocated.
func ReadBatch(rd io.Reader) ([]*Report, error) {
	var head [headerSize]byte
	if _, err := io.ReadFull(rd, head[:]); err != nil {
		return nil, err
	}
	if le.Uint32(head[:4]) != Magic {
		return nil, ErrBadMagic
	}
	if head[4] != BatchVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, head[4])
	}
	n := le.Uint32(head[5:])
	if n > MaxBatchFrameSize {
		return nil, ErrTooLarge
	}
	body := make([]byte, n+4) // payload, then its CRC
	if _, err := io.ReadFull(rd, body); err != nil {
		return nil, err
	}
	payload := body[:n]
	if crc32.Checksum(payload, castagnoli) != le.Uint32(body[n:]) {
		return nil, ErrBadCRC
	}
	return UnmarshalBatch(payload)
}

// UnmarshalBatch parses a frame payload: a u32 report count, then each
// report's payload length-prefixed with a u32.
func UnmarshalBatch(b []byte) ([]*Report, error) {
	rd := byteReader{buf: b}
	n := rd.u32()
	if rd.err != nil {
		return nil, rd.err
	}
	if n > MaxBatchReports {
		return nil, fmt.Errorf("telemetry: batch count %d exceeds limit %d", n, MaxBatchReports)
	}
	rs := make([]*Report, 0, n)
	for i := uint32(0); i < n; i++ {
		// The length is checked as a uint32, before it becomes an int:
		// on 32-bit platforms a crafted length ≥ 2^31 would go negative.
		l := rd.u32()
		if rd.err == nil && l > MaxFrameSize {
			return nil, ErrTooLarge
		}
		payload := rd.take(int(l))
		if rd.err != nil {
			return nil, rd.err
		}
		r, err := UnmarshalReport(payload)
		if err != nil {
			return nil, fmt.Errorf("telemetry: batch report %d: %w", i, err)
		}
		rs = append(rs, r)
	}
	if rd.off != len(b) {
		return nil, fmt.Errorf("telemetry: %d trailing bytes in batch", len(b)-rd.off)
	}
	return rs, nil
}
