package phy

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomFrame(rng *rand.Rand) *Frame {
	return &Frame{
		Programmable: rng.Uint64() & (1<<ProgrammableBits - 1),
		Agency:       uint16(rng.Uint32()),
		Serial:       rng.Uint64() & (1<<SerialBits - 1),
		Factory:      rng.Uint64(),
		Reserved:     rng.Uint64() & (1<<ReservedBits - 1),
	}
}

// DecodeFrame is the bit-level oracle of DemodulateChips' frame parse:
// it reads a 256-bit wire form one bit at a time, checking preamble and
// CRC, and returns ErrBadPreamble or ErrBadCRC wrapped.
func DecodeFrame(bits Bits) (*Frame, error) {
	if len(bits) != FrameBits {
		return nil, fmt.Errorf("phy: frame length %d bits, want %d", len(bits), FrameBits)
	}
	off := 0
	pre := readBits(bits, off, PreambleBits)
	off += PreambleBits
	if uint16(pre) != Preamble {
		return nil, fmt.Errorf("%w: got %#04x", ErrBadPreamble, pre)
	}
	f := &Frame{}
	f.Programmable = readBits(bits, off, ProgrammableBits)
	off += ProgrammableBits
	f.Agency = uint16(readBits(bits, off, AgencyBits))
	off += AgencyBits
	f.Serial = readBits(bits, off, SerialBits)
	off += SerialBits
	f.Factory = readBits(bits, off, FactoryBits)
	off += FactoryBits
	f.Reserved = readBits(bits, off, ReservedBits)
	off += ReservedBits
	wantCRC := uint16(readBits(bits, off, CRCBits))
	payload := bits[PreambleBits : PreambleBits+payloadBits]
	if got := CRC16(payload.Pack()); got != wantCRC {
		return nil, fmt.Errorf("%w: computed %#04x, frame carries %#04x", ErrBadCRC, got, wantCRC)
	}
	return f, nil
}

// readBits consumes `width` bits starting at offset, returning the value.
func readBits(src Bits, offset, width int) uint64 {
	var v uint64
	for i := 0; i < width; i++ {
		v = v<<1 | uint64(src[offset+i])
	}
	return v
}

func TestFrameEncodeLength(t *testing.T) {
	f := &Frame{Agency: 0x23, Serial: 0x123456}
	bits, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(bits) != FrameBits {
		t.Fatalf("encoded length %d, want %d", len(bits), FrameBits)
	}
	// Field widths must tile the frame exactly.
	total := PreambleBits + ProgrammableBits + AgencyBits + SerialBits + FactoryBits + ReservedBits + CRCBits
	if total != FrameBits {
		t.Fatalf("field widths sum to %d, want %d", total, FrameBits)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 50; i++ {
		f := randomFrame(rng)
		bits, err := f.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeFrame(bits)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *f {
			t.Fatalf("round trip mismatch: got %+v want %+v", got, f)
		}
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	fn := func(prog, serial, factory, reserved uint64, agency uint16) bool {
		f := &Frame{
			Programmable: prog & (1<<ProgrammableBits - 1),
			Agency:       agency,
			Serial:       serial & (1<<SerialBits - 1),
			Factory:      factory,
			Reserved:     reserved & (1<<ReservedBits - 1),
		}
		bits, err := f.Encode()
		if err != nil {
			return false
		}
		got, err := DecodeFrame(bits)
		return err == nil && *got == *f
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFrameValidateRejectsWideFields(t *testing.T) {
	cases := []Frame{
		{Programmable: 1 << ProgrammableBits},
		{Serial: 1 << SerialBits},
		{Reserved: 1 << ReservedBits},
	}
	for i, f := range cases {
		if _, err := f.Encode(); err == nil {
			t.Errorf("case %d: Encode accepted out-of-width field", i)
		}
	}
}

func TestDecodeFrameDetectsBitFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	f := randomFrame(rng)
	bits, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Any single-bit flip anywhere in the frame must be rejected
	// (CRC-16 detects all single-bit errors; preamble flips are caught
	// by the preamble check).
	for i := 0; i < FrameBits; i++ {
		mut := make(Bits, FrameBits)
		copy(mut, bits)
		mut[i] ^= 1
		if _, err := DecodeFrame(mut); err == nil {
			t.Fatalf("bit flip at %d went undetected", i)
		}
	}
}

func TestDecodeFrameErrorKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	f := randomFrame(rng)
	bits, _ := f.Encode()

	pre := make(Bits, FrameBits)
	copy(pre, bits)
	pre[0] ^= 1
	if _, err := DecodeFrame(pre); !errors.Is(err, ErrBadPreamble) {
		t.Errorf("preamble flip: got %v, want ErrBadPreamble", err)
	}

	body := make(Bits, FrameBits)
	copy(body, bits)
	body[PreambleBits+3] ^= 1
	if _, err := DecodeFrame(body); !errors.Is(err, ErrBadCRC) {
		t.Errorf("payload flip: got %v, want ErrBadCRC", err)
	}

	if _, err := DecodeFrame(bits[:100]); err == nil {
		t.Error("short frame accepted")
	}
}

func TestFrameID(t *testing.T) {
	f := &Frame{Agency: 0xABCD, Serial: 0x123456789ABC}
	want := uint64(0xABCD)<<48 | 0x123456789ABC
	if got := f.ID(); got != want {
		t.Errorf("ID() = %#x, want %#x", got, want)
	}
}

func TestBitsPack(t *testing.T) {
	b := Bits{1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 1, 1, 0, 0, 0, 0}
	got := b.Pack()
	if len(got) != 2 || got[0] != 0xAA || got[1] != 0xF0 {
		t.Errorf("Pack = %x, want aaf0", got)
	}
}

func TestBitsPackPanicsOnPartialByte(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-multiple-of-8 length")
		}
	}()
	Bits{1, 0, 1}.Pack()
}

func TestCRC16KnownVector(t *testing.T) {
	// CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
	if got := CRC16([]byte("123456789")); got != 0x29B1 {
		t.Errorf("CRC16 check vector = %#04x, want 0x29B1", got)
	}
	if got := CRC16(nil); got != 0xFFFF {
		t.Errorf("CRC16(nil) = %#04x, want init value 0xFFFF", got)
	}
}
