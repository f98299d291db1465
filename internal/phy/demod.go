package phy

import (
	"encoding/binary"
	"errors"
)

// Errors returned by the pooled demodulator. They are bare sentinels —
// no allocation per failure — because on the coherent-combining path a
// CRC failure is the *common* case (§8: keep combining until the
// checksum passes), hit once per query per in-flight decode.
var (
	// ErrShortEnvelope is returned when the envelope does not hold a
	// full 256-bit frame at the given sample rate.
	ErrShortEnvelope = errors.New("phy: envelope shorter than one frame")
	// ErrLowSampleRate is returned when the sample rate is below one
	// sample per chip.
	ErrLowSampleRate = errors.New("phy: sample rate below one sample per chip")
)

// DemodScratch owns the chip-energy buffer DemodulateFrame integrates
// an envelope into. The zero value is ready to use; it is not safe for
// concurrent use. Demodulation decisions are bit-identical to the
// allocating oracle chain the package's tests keep — same integrations,
// same comparisons, same CRC — only the buffer lifetime and the error
// surface differ (bare sentinels instead of wrapped errors, a Frame
// value instead of a pointer).
type DemodScratch struct {
	energy []float64 // per-chip integrated energy
}

// DemodulateFrame runs envelope → chip energies → Manchester decisions
// → frame parse with CRC check. The frame is returned by value; on
// steady-state reuse the call allocates nothing. Errors are the bare
// sentinels ErrLowSampleRate, ErrShortEnvelope, ErrBadPreamble, and
// ErrBadCRC.
func (ds *DemodScratch) DemodulateFrame(env []float64, sampleRate float64) (Frame, error) {
	spc := SamplesPerChip(sampleRate)
	if spc < 1 {
		return Frame{}, ErrLowSampleRate
	}
	if len(env) < FrameChips*spc {
		return Frame{}, ErrShortEnvelope
	}
	if cap(ds.energy) < FrameChips {
		ds.energy = make([]float64, FrameChips)
	}
	energy := ds.energy[:FrameChips]
	for c := range energy {
		var sum float64
		for _, v := range env[c*spc : (c+1)*spc] {
			sum += v
		}
		energy[c] = sum
	}
	return DemodulateChips(energy)
}

// The wire form packed eight bits to a byte. Preamble, payload and
// checksum each fill whole bytes, so the payload the CRC covers is a
// plain sub-slice of it.
const (
	wireBytes     = FrameBits / 8
	preambleBytes = PreambleBits / 8
	payloadBytes  = payloadBits / 8
)

// DemodulateChips is the decision half of the receive chain: per-chip
// energies → Manchester decisions → frame parse with CRC check. It is
// what DemodulateFrame runs after integrating an envelope, and what the
// §8 decoder, which accumulates chip energies directly, calls on every
// attempt. energy holds one value per chip of a frame-aligned response;
// values past FrameChips are ignored and fewer is ErrShortEnvelope.
// The other errors are the bare ErrBadPreamble and ErrBadCRC. Nothing
// is allocated.
//
// While a decoder is still combining, nearly every call fails, so the
// 16 preamble bits are decided and checked before the other 240; and
// since each bit of a not-yet-clean accumulator is a coin toss, the
// decisions are made without branching on them.
func DemodulateChips(energy []float64) (Frame, error) {
	if len(energy) < FrameChips {
		return Frame{}, ErrShortEnvelope
	}
	var wire [wireBytes]byte
	decideBytes(wire[:preambleBytes], energy)
	if uint16(wire[0])<<8|uint16(wire[1]) != Preamble {
		return Frame{}, ErrBadPreamble
	}
	decideBytes(wire[preambleBytes:], energy[PreambleBits*ChipsPerBit:])
	const crcAt = preambleBytes + payloadBytes
	wantCRC := uint16(wire[crcAt])<<8 | uint16(wire[crcAt+1])
	if CRC16(wire[preambleBytes:crcAt]) != wantCRC {
		return Frame{}, ErrBadCRC
	}
	var words [wireBytes / 8]uint64
	for i := range words {
		words[i] = binary.BigEndian.Uint64(wire[8*i:])
	}
	var f Frame
	off := PreambleBits
	f.Programmable = wireField(&words, off, ProgrammableBits)
	off += ProgrammableBits
	f.Agency = uint16(wireField(&words, off, AgencyBits))
	off += AgencyBits
	f.Serial = wireField(&words, off, SerialBits)
	off += SerialBits
	f.Factory = wireField(&words, off, FactoryBits)
	off += FactoryBits
	f.Reserved = wireField(&words, off, ReservedBits)
	return f, nil
}

// wireField reads the width-bit field (1 to 64 bits) at bit offset off
// of the wire form held as big-endian words; the field may straddle two.
func wireField(words *[wireBytes / 8]uint64, off, width int) uint64 {
	i, lead := off/64, uint(off%64)
	v := words[i] << lead
	if int(lead)+width > 64 {
		v |= words[i+1] >> (64 - lead)
	}
	return v >> uint(64-width)
}

// decideBytes makes 8·len(dst) soft Manchester decisions — a bit is 1
// when its first chip holds at least the energy of its second, as in
// DemodulateSoft — and packs them MSB first.
func decideBytes(dst []byte, energy []float64) {
	for k := range dst {
		e := energy[16*k : 16*k+16 : 16*k+16]
		dst[k] = atLeast(e[0], e[1])<<7 | atLeast(e[2], e[3])<<6 |
			atLeast(e[4], e[5])<<5 | atLeast(e[6], e[7])<<4 |
			atLeast(e[8], e[9])<<3 | atLeast(e[10], e[11])<<2 |
			atLeast(e[12], e[13])<<1 | atLeast(e[14], e[15])
	}
}

// atLeast is a ≥ b as a bit. The compiler turns this shape into a
// flag-set instruction, not a jump.
func atLeast(a, b float64) uint8 {
	var bit uint8
	if a >= b {
		bit = 1
	}
	return bit
}
