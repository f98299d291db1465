package phy

import (
	"errors"
	"fmt"
)

// Field widths of the 256-bit response frame (Fig 2(b)). The payload
// fields total 224 bits (exactly 28 bytes), bracketed by a 16-bit
// preamble and a 16-bit CRC.
const (
	PreambleBits     = 16
	ProgrammableBits = 47 // the "47 bits" programmable region of Fig 2(b)
	AgencyBits       = 16
	SerialBits       = 48
	FactoryBits      = 64
	ReservedBits     = 49
	CRCBits          = 16

	payloadBits = ProgrammableBits + AgencyBits + SerialBits + FactoryBits + ReservedBits // 224
)

// Preamble is the fixed synchronization pattern opening every response.
const Preamble uint16 = 0xAA55

// ErrBadPreamble is returned when a decoded frame does not start with
// the preamble pattern.
var ErrBadPreamble = errors.New("phy: bad frame preamble")

// ErrBadCRC is returned when a decoded frame fails its checksum. During
// collision decoding this is the signal to keep combining replies (§8).
var ErrBadCRC = errors.New("phy: frame checksum mismatch")

// Frame is the content of a transponder response. Width-limited fields
// are stored in the low bits of their Go type.
type Frame struct {
	Programmable uint64 // 47-bit agency-programmable region
	Agency       uint16 // 16-bit issuing-agency code
	Serial       uint64 // 48-bit per-transponder serial number
	Factory      uint64 // 64-bit factory-fixed data
	Reserved     uint64 // 49-bit reserved region
}

// ID returns the transponder identity used for tolling: the agency code
// concatenated with the serial number.
func (f *Frame) ID() uint64 {
	return uint64(f.Agency)<<SerialBits | f.Serial&(1<<SerialBits-1)
}

// String renders the frame id compactly.
func (f *Frame) String() string {
	return fmt.Sprintf("Frame{agency=%04x serial=%012x}", f.Agency, f.Serial&(1<<SerialBits-1))
}

// Validate reports whether all fields fit their wire widths.
func (f *Frame) Validate() error {
	if f.Programmable >= 1<<ProgrammableBits {
		return fmt.Errorf("phy: programmable field %#x exceeds %d bits", f.Programmable, ProgrammableBits)
	}
	if f.Serial >= 1<<SerialBits {
		return fmt.Errorf("phy: serial %#x exceeds %d bits", f.Serial, SerialBits)
	}
	if f.Reserved >= 1<<ReservedBits {
		return fmt.Errorf("phy: reserved field %#x exceeds %d bits", f.Reserved, ReservedBits)
	}
	return nil
}

// Bits is an unpacked bit string, one 0/1 value per element, MSB first
// within each encoded field. The unpacked form suits sample-level
// modulation; Pack converts to bytes for checksum computation.
type Bits []uint8

// appendBits appends the low `width` bits of v, most significant first.
func appendBits(dst Bits, v uint64, width int) Bits {
	for i := width - 1; i >= 0; i-- {
		dst = append(dst, uint8(v>>uint(i))&1)
	}
	return dst
}

// Pack converts a bit string whose length is a multiple of 8 into
// bytes, MSB first.
func (b Bits) Pack() []byte {
	if len(b)%8 != 0 {
		panic(fmt.Sprintf("phy: cannot pack %d bits into bytes", len(b)))
	}
	out := make([]byte, len(b)/8)
	for i, bit := range b {
		out[i/8] |= (bit & 1) << uint(7-i%8)
	}
	return out
}

// Encode serializes the frame into its 256-bit wire form:
// preamble, payload fields, CRC-16 over the packed payload.
func (f *Frame) Encode() (Bits, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	bits := make(Bits, 0, FrameBits)
	bits = appendBits(bits, uint64(Preamble), PreambleBits)
	bits = appendBits(bits, f.Programmable, ProgrammableBits)
	bits = appendBits(bits, uint64(f.Agency), AgencyBits)
	bits = appendBits(bits, f.Serial, SerialBits)
	bits = appendBits(bits, f.Factory, FactoryBits)
	bits = appendBits(bits, f.Reserved, ReservedBits)
	payload := bits[PreambleBits : PreambleBits+payloadBits]
	crc := CRC16(payload.Pack())
	bits = appendBits(bits, uint64(crc), CRCBits)
	if len(bits) != FrameBits {
		panic(fmt.Sprintf("phy: encoded frame is %d bits, want %d", len(bits), FrameBits))
	}
	return bits, nil
}
