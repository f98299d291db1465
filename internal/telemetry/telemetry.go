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
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
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
	return r.appendTo(make([]byte, 0, r.size()))
}

// Payload sizes: a report's fixed fields, then per spike its fixed
// fields and 16 bytes per channel.
const (
	reportFixedSize = 4 + 4 + 8 + 4 + 4 // reader, seq, timestamp, count, spike count
	spikeFixedSize  = 8 + 1 + 8 + 1     // CFO, Multiple, decoded id, channel count
)

// size is the exact length of the report's payload.
func (r *Report) size() int {
	n := reportFixedSize + len(r.Spikes)*spikeFixedSize
	for i := range r.Spikes {
		n += 16 * len(r.Spikes[i].Channels)
	}
	return n
}

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

// UnmarshalReport parses a report payload. The report is three objects
// whatever its spike count: itself, its spikes, and one array every
// spike's channels are cut from.
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
	r.Spikes = make([]SpikeRecord, n)
	// What the spikes' fixed fields leave of the payload is channels, so
	// this capacity is exact for a well-formed report. A malformed one
	// that outgrows it only costs a regrowth: spikes already cut keep the
	// old array.
	chans := make([]complex128, 0, max(len(b)-rd.off-int(n)*spikeFixedSize, 0)/16)
	for i := range r.Spikes {
		s := &r.Spikes[i]
		s.FreqHz = rd.f64()
		s.Multiple = rd.u8() != 0
		s.DecodedID = rd.u64()
		nc := int(rd.u8())
		if rd.err != nil {
			return nil, rd.err
		}
		start := len(chans)
		for c := 0; c < nc; c++ {
			re := rd.f64()
			im := rd.f64()
			chans = append(chans, complex(re, im))
		}
		if rd.err != nil {
			return nil, rd.err
		}
		// The full-slice form keeps an append to one spike's channels
		// out of the next spike's.
		s.Channels = chans[start:len(chans):len(chans)]
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
// buffer (AppendBatch) and goes out in a single Write: one syscall, and
// — load-bearing for the fault-injection layer — a frame is atomic at
// the net.Conn boundary, so an injected drop or kill loses or
// duplicates whole frames and can never desynchronize the stream
// mid-frame.
func WriteBatch(w io.Writer, rs []*Report) error {
	frame, err := AppendBatch(nil, rs)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// AppendBatch appends one frame carrying rs to b and returns the
// extended buffer; on error b comes back unextended. The frame's exact
// size is reserved up front, the header is filled in last and each
// report is appended behind its length prefix, so a sender that keeps
// its buffer from one frame to the next allocates nothing.
func AppendBatch(b []byte, rs []*Report) ([]byte, error) {
	if len(rs) > MaxBatchReports {
		return b, fmt.Errorf("telemetry: %d reports exceeds batch limit %d", len(rs), MaxBatchReports)
	}
	size := headerSize + 4 + 4
	for _, r := range rs {
		size += 4 + r.size()
	}
	b = slices.Grow(b, size)
	start := len(b)
	frame := b[:start+headerSize] // the header is written last
	frame = le.AppendUint32(frame, uint32(len(rs)))
	for i, r := range rs {
		prefix := len(frame)
		frame = le.AppendUint32(frame, 0)
		var err error
		if frame, err = r.appendTo(frame); err != nil {
			return b, fmt.Errorf("telemetry: batch report %d: %w", i, err)
		}
		n := len(frame) - prefix - 4
		if n > MaxFrameSize {
			return b, fmt.Errorf("telemetry: batch report %d: %w", i, ErrTooLarge)
		}
		le.PutUint32(frame[prefix:], uint32(n))
	}
	payload := frame[start+headerSize:]
	if len(payload) > MaxBatchFrameSize {
		return b, ErrTooLarge
	}
	le.PutUint32(frame[start:], Magic)
	frame[start+4] = BatchVersion
	le.PutUint32(frame[start+5:], uint32(len(payload)))
	return le.AppendUint32(frame, crc32.Checksum(payload, castagnoli)), nil
}

// readChunk is the most payload ReadBatch asks of a stream at a time
// when the frame does not lie whole in a bufio.Reader's buffer.
const readChunk = 64 << 10

// ReadBatch reads the next frame, verifies its CRC and returns its
// reports — the ingest entry point of a collector. A version other
// than BatchVersion is refused straight after the header, before the
// payload length is trusted or a byte of payload is requested, and the
// length is checked against MaxBatchFrameSize before any of it is read.
//
// From a *bufio.Reader, a frame that fits the buffer is parsed where it
// lies (Peek, then Discard): a burst of frames costs the stream one
// read, and no frame copies its payload out. Otherwise the payload
// buffer grows as its bytes arrive, readChunk at a time, so a header
// claiming MaxBatchFrameSize reserves nothing until the bytes come.
func ReadBatch(rd io.Reader) ([]*Report, error) {
	br, _ := rd.(*bufio.Reader)
	var head []byte
	if br != nil {
		h, err := br.Peek(headerSize)
		if err != nil {
			if len(h) > 0 {
				return nil, midFrame(err)
			}
			return nil, err
		}
		head = h
	} else {
		var h [headerSize]byte
		if _, err := io.ReadFull(rd, h[:]); err != nil {
			return nil, err
		}
		head = h[:]
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
	want := int(n) + 4 // payload, then its CRC
	if br != nil {
		if size := headerSize + want; size <= br.Size() {
			frame, err := br.Peek(size)
			if err != nil {
				return nil, midFrame(err)
			}
			rs, err := parseFrame(frame[headerSize:])
			br.Discard(size)
			return rs, err
		}
		br.Discard(headerSize)
	}
	var body []byte
	for len(body) < want {
		k := min(want-len(body), readChunk)
		body = slices.Grow(body, k)
		if _, err := io.ReadFull(rd, body[len(body):len(body)+k]); err != nil {
			return nil, midFrame(err)
		}
		body = body[:len(body)+k]
	}
	return parseFrame(body)
}

// midFrame is err as a read that stops inside a frame reports it: an
// end of stream there is unexpected.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// parseFrame checks a frame's payload against the CRC that follows it
// in body and parses it.
func parseFrame(body []byte) ([]*Report, error) {
	n := len(body) - 4
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
