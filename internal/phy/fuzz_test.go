package phy

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// chipBytes packs chip energies as little-endian float64 bits, the form
// FuzzDemodulateChips reads them in.
func chipBytes(energy []float64) []byte {
	b := make([]byte, 0, 8*len(energy))
	for _, v := range energy {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// FuzzDemodulateChips feeds arbitrary chip energies — any float64 bit
// pattern, any count — to DemodulateChips and to the allocating oracle
// chain DemodulateEnvelope → DemodulateSoft → DecodeFrame at one sample
// per chip. Both must return the same frame or the same failure, as the
// bare ErrShortEnvelope, ErrBadPreamble or ErrBadCRC, and never panic.
func FuzzDemodulateChips(f *testing.F) {
	bits, err := (&Frame{Agency: 0x23, Serial: 0xABCDEF, Factory: math.MaxUint64}).Encode()
	if err != nil {
		f.Fatal(err)
	}
	clean := make([]float64, FrameChips)
	for i, c := range ManchesterEncode(bits) {
		clean[i] = float64(c)
	}
	with := func(at int, v float64) []float64 {
		e := append([]float64(nil), clean...)
		e[at] = v
		return e
	}
	for _, seed := range [][]float64{
		nil,
		clean,
		clean[:FrameChips-1],
		append(append([]float64(nil), clean...), math.NaN(), math.Inf(1), -1),
		with(PreambleBits*ChipsPerBit+7, math.NaN()),
		with(3, math.NaN()),
		with(40, math.Inf(1)),
		with(41, math.Inf(-1)),
		with(100, math.MaxFloat64),
		with(101, -math.MaxFloat64),
		with(2*PreambleBits, clean[2*PreambleBits+1]), // a tied pair decides 1
		make([]float64, FrameChips),
	} {
		f.Add(chipBytes(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		energy := make([]float64, len(raw)/8)
		for i := range energy {
			energy[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		got, gotErr := DemodulateChips(energy)
		want, wantErr := DemodulateFrame(energy, 1)
		switch {
		case wantErr == nil:
			if gotErr != nil || got != *want {
				t.Fatalf("got (%+v, %v), oracle %+v", got, gotErr, *want)
			}
		case errors.Is(wantErr, ErrBadPreamble):
			if gotErr != ErrBadPreamble {
				t.Fatalf("got %v, oracle %v", gotErr, wantErr)
			}
		case errors.Is(wantErr, ErrBadCRC):
			if gotErr != ErrBadCRC {
				t.Fatalf("got %v, oracle %v", gotErr, wantErr)
			}
		case len(energy) < FrameChips: // the oracle's envelope is short of a frame
			if gotErr != ErrShortEnvelope {
				t.Fatalf("%d chips: got %v, want bare ErrShortEnvelope (oracle: %v)", len(energy), gotErr, wantErr)
			}
		default:
			t.Fatalf("%d chips: unexpected oracle error %v", len(energy), wantErr)
		}
	})
}
