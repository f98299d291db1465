package phy

import "fmt"

// Envelope expands OOK chips into a per-sample 0/1 envelope at
// samplesPerChip samples per chip. The transponder's transmitted signal
// is this envelope times its carrier (Eq 1: x(t) = s(t)·e^{j2πf_c t});
// the channel simulator applies carrier offset and channel.
func Envelope(chips Bits, samplesPerChip int) []float64 {
	if samplesPerChip <= 0 {
		panic(fmt.Sprintf("phy: samplesPerChip %d must be positive", samplesPerChip))
	}
	env := make([]float64, len(chips)*samplesPerChip)
	for i, c := range chips {
		if c == 0 {
			continue
		}
		base := i * samplesPerChip
		for s := 0; s < samplesPerChip; s++ {
			env[base+s] = 1
		}
	}
	return env
}

// ModulateFrame encodes a frame and returns its baseband OOK envelope
// at the given sample rate. The envelope length equals
// SamplesPerResponse(sampleRate).
func ModulateFrame(f *Frame, sampleRate float64) ([]float64, error) {
	bits, err := f.Encode()
	if err != nil {
		return nil, err
	}
	spc := SamplesPerChip(sampleRate)
	if spc < 1 {
		return nil, fmt.Errorf("phy: sample rate %g Hz below one sample per chip", sampleRate)
	}
	return Envelope(ManchesterEncode(bits), spc), nil
}
