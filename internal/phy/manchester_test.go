package phy

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// DemodulateSoft is the allocating oracle of DemodulateChips' bit
// decisions. It converts per-chip energy measurements into data bits by
// comparing the two halves of each bit period: Manchester guarantees
// exactly one half is "on", so the larger half decides the bit. This is
// robust to unknown absolute scale, which is what the coherent combiner
// hands the decoder (§8: amplitudes are N·s(t) plus residual
// interference).
func DemodulateSoft(chipEnergy []float64) (Bits, error) {
	if len(chipEnergy)%ChipsPerBit != 0 {
		return nil, fmt.Errorf("phy: chip energy length %d is not a multiple of %d", len(chipEnergy), ChipsPerBit)
	}
	bits := make(Bits, 0, len(chipEnergy)/ChipsPerBit)
	for i := 0; i < len(chipEnergy); i += ChipsPerBit {
		if chipEnergy[i] >= chipEnergy[i+1] {
			bits = append(bits, 1)
		} else {
			bits = append(bits, 0)
		}
	}
	return bits, nil
}

func TestManchesterEncodeBasic(t *testing.T) {
	chips := ManchesterEncode(Bits{1, 0})
	want := Bits{1, 0, 0, 1}
	if len(chips) != len(want) {
		t.Fatalf("chip length %d, want %d", len(chips), len(want))
	}
	for i := range want {
		if chips[i] != want[i] {
			t.Fatalf("chips = %v, want %v", chips, want)
		}
	}
}

func TestManchesterRoundTripProperty(t *testing.T) {
	fn := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		bits := make(Bits, int(n)+1)
		for i := range bits {
			bits[i] = uint8(rng.Intn(2))
		}
		chips := ManchesterEncode(bits)
		energy := make([]float64, len(chips))
		for i, c := range chips {
			energy[i] = float64(c)
		}
		decoded, err := DemodulateSoft(energy)
		if err != nil || len(decoded) != len(bits) {
			return false
		}
		for i := range bits {
			if decoded[i] != bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestManchesterDCBalance(t *testing.T) {
	// Manchester guarantees exactly half the chips are "on" regardless
	// of data — the property that creates the CFO spike (§3 footnote 6).
	rng := rand.New(rand.NewSource(61))
	bits := make(Bits, FrameBits)
	for i := range bits {
		bits[i] = uint8(rng.Intn(2))
	}
	chips := ManchesterEncode(bits)
	on := 0
	for _, c := range chips {
		on += int(c)
	}
	if on != len(chips)/2 {
		t.Errorf("%d of %d chips on, want exactly half", on, len(chips))
	}
}

func TestDemodulateSoft(t *testing.T) {
	energy := []float64{5.0, 1.0, 0.2, 4.0, 3.0, 3.0}
	bits, err := DemodulateSoft(energy)
	if err != nil {
		t.Fatal(err)
	}
	want := Bits{1, 0, 1} // ties resolve to 1
	for i := range want {
		if bits[i] != want[i] {
			t.Fatalf("DemodulateSoft = %v, want %v", bits, want)
		}
	}
	if _, err := DemodulateSoft([]float64{1}); err == nil {
		t.Error("odd energy count accepted")
	}
}
