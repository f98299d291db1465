// Package phy implements the physical-layer protocol of e-toll
// transponders as described in §3 of the Caraoke paper: the
// query/response timing, the 256-bit response frame, and its on-off
// keying (OOK) modulation with Manchester coding.
//
// The exact field layout of commercial IAG transponders is proprietary;
// the frame defined here keeps the documented structure (a 256-bit
// response with programmable, agency-fixed and factory-fixed regions
// plus a checksum, Fig 2(b)) and the documented timing, which is all the
// Caraoke algorithms depend on.
package phy

import "time"

// Protocol timing from Fig 2(a) of the paper.
const (
	// QueryDuration is the length of the reader's trigger sinewave.
	QueryDuration = 20 * time.Microsecond
	// TurnaroundDelay separates the end of the query from the start of
	// the transponder response.
	TurnaroundDelay = 100 * time.Microsecond
	// ResponseDuration is the length of the 256-bit transponder
	// response.
	ResponseDuration = 512 * time.Microsecond
	// CarrierSenseWindow is how long a Caraoke reader must observe an
	// idle medium before querying (§9): longer than query plus
	// turnaround, so no pending response can be in flight.
	CarrierSenseWindow = 120 * time.Microsecond
	// QueryPeriod is the spacing between successive queries while a
	// reader is decoding ids (§12.4: "queries are separated by 1ms").
	QueryPeriod = 1 * time.Millisecond
)

// Frame structure constants.
const (
	// FrameBits is the total transponder response length in bits.
	FrameBits = 256
	// BitDuration is the duration of one data bit: 512 µs / 256 bits.
	BitDuration = ResponseDuration / FrameBits // 2 µs
	// ChipsPerBit is the number of Manchester half-bits per data bit.
	ChipsPerBit = 2
	// ChipDuration is the duration of one Manchester chip.
	ChipDuration = BitDuration / ChipsPerBit // 1 µs
	// FrameChips is the total response length in Manchester chips.
	FrameChips = FrameBits * ChipsPerBit
)

// Carrier-band constants from §3 and §5.
const (
	// BandLow and BandHigh bound the transponder carrier frequencies.
	BandLow  = 914.3e6 // Hz
	BandHigh = 915.5e6 // Hz
	// NominalCarrier is the nominal operating frequency.
	NominalCarrier = 915e6 // Hz
)

// The front end's one capture shape (§3, §5): the reader digitizes one
// 512 µs response at 4 MHz, four complex samples per Manchester chip,
// 2048 in all — the 1.95 kHz FFT bin of Eq 6. Every capture, envelope
// and decoder in the program has this shape; the boundaries that take
// one from outside refuse any other.
const (
	// ChipSamples is the number of complex samples per chip.
	ChipSamples = 4
	// SampleRate is the front end's complex sample rate, Hz.
	SampleRate = ChipSamples * float64(time.Second/ChipDuration)
	// ResponseSamples is the length of one capture: a whole response.
	ResponseSamples = FrameChips * ChipSamples
)
