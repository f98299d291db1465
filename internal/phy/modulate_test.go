package phy

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

const testSampleRate = 4e6

// DemodulateEnvelope integrates a recovered real-valued envelope over
// each chip period of spc samples and makes per-bit Manchester
// decisions. The envelope must be frame-aligned (the reader knows the
// response starts exactly TurnaroundDelay after its query) and hold one
// full frame.
func DemodulateEnvelope(env []float64, spc int) (Bits, error) {
	chips := FrameBits * ChipsPerBit
	if len(env) < chips*spc {
		return nil, fmt.Errorf("phy: envelope holds %d samples, a frame needs %d", len(env), chips*spc)
	}
	energy := make([]float64, chips)
	for c := 0; c < chips; c++ {
		var sum float64
		for s := 0; s < spc; s++ {
			sum += env[c*spc+s]
		}
		energy[c] = sum
	}
	return DemodulateSoft(energy)
}

// DemodulateFrame is the allocating oracle of DemodScratch.DemodulateFrame:
// envelope → chip energies → Manchester decisions → frame parse with CRC
// check, each stage its own allocation and its own error text.
func DemodulateFrame(env []float64, spc int) (*Frame, error) {
	bits, err := DemodulateEnvelope(env, spc)
	if err != nil {
		return nil, err
	}
	return DecodeFrame(bits)
}

func TestTimingConstantsConsistent(t *testing.T) {
	if got := FrameBits * BitDuration; got != ResponseDuration {
		t.Errorf("FrameBits×BitDuration = %v, want %v", got, ResponseDuration)
	}
	if SampleRate != testSampleRate || ChipSamples != 4 || ResponseSamples != 2048 {
		t.Errorf("front end %g Hz, %d samples per chip, %d per response; want 4 MHz, 4, 2048",
			SampleRate, ChipSamples, ResponseSamples)
	}
	if got := SampleRate * ResponseDuration.Seconds(); got != ResponseSamples {
		t.Errorf("one response at SampleRate is %g samples, want %d", got, ResponseSamples)
	}
	if CarrierSenseWindow <= QueryDuration+TurnaroundDelay-1 {
		t.Error("carrier-sense window shorter than query+turnaround (§9)")
	}
}

func TestModulateFrameLength(t *testing.T) {
	f := &Frame{Agency: 1, Serial: 42}
	env, err := ModulateFrame(f, testSampleRate)
	if err != nil {
		t.Fatal(err)
	}
	if len(env) != ResponseSamples {
		t.Fatalf("envelope %d samples, want %d", len(env), ResponseSamples)
	}
	// Envelope is exactly 0/1 valued and half-on (Manchester balance).
	on := 0
	for _, v := range env {
		if v != 0 && v != 1 {
			t.Fatalf("envelope value %g not in {0,1}", v)
		}
		if v == 1 {
			on++
		}
	}
	if on != len(env)/2 {
		t.Errorf("%d of %d samples on, want exactly half", on, len(env))
	}
}

func TestModulateDemodulateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < 20; i++ {
		f := randomFrame(rng)
		env, err := ModulateFrame(f, testSampleRate)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DemodulateFrame(env, ChipSamples)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *f {
			t.Fatalf("round trip mismatch: got %+v want %+v", got, f)
		}
	}
}

func TestDemodulateWithNoiseAndScale(t *testing.T) {
	// The soft demodulator must survive additive noise and unknown
	// scaling — the conditions after coherent combining (§8).
	rng := rand.New(rand.NewSource(72))
	f := randomFrame(rng)
	env, err := ModulateFrame(f, testSampleRate)
	if err != nil {
		t.Fatal(err)
	}
	noisy := make([]float64, len(env))
	for i := range env {
		noisy[i] = 3.7*env[i] + rng.NormFloat64()*0.4
	}
	got, err := DemodulateFrame(noisy, ChipSamples)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *f {
		t.Fatalf("noisy round trip mismatch: got %+v want %+v", got, f)
	}
}

func TestDemodulateEnvelopeShortInput(t *testing.T) {
	if _, err := DemodulateEnvelope(make([]float64, 100), ChipSamples); err == nil {
		t.Error("short envelope accepted")
	}
}

// TestModulateFrameLowSampleRate: every rate but the front end's is
// refused, below the chip rate or not.
func TestModulateFrameLowSampleRate(t *testing.T) {
	f := &Frame{}
	for _, rate := range []float64{1e5, 1e6, 3.9e6, 8e6, 0} {
		if _, err := ModulateFrame(f, rate); !errors.Is(err, ErrSampleRate) {
			t.Errorf("%g Hz: got %v, want ErrSampleRate", rate, err)
		}
	}
}

func TestEnvelopePanicsOnBadChipRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero samplesPerChip")
		}
	}()
	Envelope(Bits{1}, 0)
}
