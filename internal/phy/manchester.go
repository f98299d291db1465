package phy

import "fmt"

// Manchester coding: each data bit becomes two OOK chips. A "1" is
// carrier-on then carrier-off; a "0" is carrier-off then carrier-on.
// Every bit therefore spends exactly half its duration transmitting,
// which gives the response a 0.5 mean — the DC term that becomes the
// CFO spike Caraoke detects (§3: s(t) = 0.5 + s'(t) with s' zero-mean).

// ManchesterEncode expands data bits into OOK chips (0 = off, 1 = on).
func ManchesterEncode(bits Bits) Bits {
	chips := make(Bits, 0, len(bits)*ChipsPerBit)
	for _, b := range bits {
		if b != 0 {
			chips = append(chips, 1, 0)
		} else {
			chips = append(chips, 0, 1)
		}
	}
	return chips
}

// DemodulateSoft converts per-chip energy measurements into data bits
// by comparing the two halves of each bit period: Manchester guarantees
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
