package transponder

import (
	"math/rand"

	"caraoke/internal/geom"
	"caraoke/internal/phy"
)

// PopulationParams controls random device generation.
type PopulationParams struct {
	CarrierMean  float64 // mean oscillator frequency, Hz
	CarrierSigma float64 // oscillator frequency std-dev, Hz
	BandLow      float64 // clamp floor, Hz
	BandHigh     float64 // clamp ceiling, Hz
	Agency       uint16  // issuing agency for generated frames
}

// DefaultPopulationParams reproduces the carrier statistics the paper
// measured across 155 real transponders (footnote 7), clamped to the
// 914.3–915.5 MHz band of §3.
func DefaultPopulationParams() PopulationParams {
	return PopulationParams{
		CarrierMean:  CarrierMean,
		CarrierSigma: CarrierSigma,
		BandLow:      phy.BandLow,
		BandHigh:     phy.BandHigh,
		Agency:       0x0E5A, // arbitrary agency code for generated tags
	}
}

// SampleCarrier draws one oscillator frequency from the empirical
// population distribution.
func SampleCarrier(p PopulationParams, rng *rand.Rand) float64 {
	f := p.CarrierMean + rng.NormFloat64()*p.CarrierSigma
	if f < p.BandLow {
		f = p.BandLow
	}
	if f > p.BandHigh {
		f = p.BandHigh
	}
	return f
}

// NewRandomDevice creates a device with a population-sampled carrier, a
// unique serial, dense factory payload (real transponders carry
// non-trivial factory data; all-zero payloads would add a strong
// Manchester clock line to the spectrum), and the given position.
func NewRandomDevice(p PopulationParams, serial uint64, pos geom.Vec3, rng *rand.Rand) *Device {
	frame := phy.Frame{
		Programmable: rng.Uint64() & (1<<phy.ProgrammableBits - 1),
		Agency:       p.Agency,
		Serial:       serial & (1<<phy.SerialBits - 1),
		Factory:      rng.Uint64(),
		Reserved:     rng.Uint64() & (1<<phy.ReservedBits - 1),
	}
	return New(frame, SampleCarrier(p, rng), pos)
}

// DenseSerial returns a tag serial with random upper bits, drawn from
// rng, and low as its low 16 bits. Callers count low up, so serials stay
// unique, and the random upper bits are dense like the serial numbers
// of deployed transponders. A serial with a long zero run would
// concentrate its Manchester data spectrum into strong comb lines — an
// artifact of toy ids, not of real tags.
func DenseSerial(rng *rand.Rand, low uint64) uint64 {
	return rng.Uint64()&^uint64(0xFFFF) | low&0xFFFF
}

// NewPopulation creates n random devices at the origin; callers place
// them afterward. Their serials are DenseSerial's, with low bits counting
// up from firstSerial.
func NewPopulation(p PopulationParams, n int, firstSerial uint64, rng *rand.Rand) []*Device {
	devs := make([]*Device, n)
	for i := range devs {
		devs[i] = NewRandomDevice(p, DenseSerial(rng, firstSerial+uint64(i)), geom.Vec3{}, rng)
	}
	return devs
}
