// Package core implements the Caraoke algorithms: counting colliding
// transponders from CFO spikes (§5), per-transponder localization from
// inter-antenna spike phases (§6), speed estimation across reader pairs
// (§7), and id decoding by coherent combining of repeated collisions
// (§8). It consumes the complex-baseband captures produced by
// internal/rfsim (or, in a hardware deployment, by an SDR front end)
// and knows nothing about how they were obtained.
package core

import (
	"fmt"

	"caraoke/internal/dsp"
	"caraoke/internal/geom"
	"caraoke/internal/phy"
)

// Params configures capture analysis.
type Params struct {
	// SampleRate of the captures, Hz (prototype: 4 MHz).
	SampleRate float64
	// ReaderLO is the receive local-oscillator frequency. Caraoke pins
	// it at the bottom of the transponder band so every CFO is
	// positive and spans 0–1.2 MHz.
	ReaderLO float64
	// Wavelength of the nominal carrier, for AoA conversion.
	Wavelength float64
	// Peaks tunes spike detection.
	Peaks dsp.PeakParams
	// Occupancy tunes the §5 dual-window one-vs-many bin test.
	Occupancy dsp.OccupancyParams
	// ClockImageReject drops weak spikes that sit one Manchester bit
	// rate (500 kHz) away from a much stronger spike: residual clock
	// lines of the stronger transponder's data, not devices.
	ClockImageReject bool
	// ClockImageRatio is the maximum weak/strong magnitude ratio for a
	// spike to be eligible for clock-image rejection.
	ClockImageRatio float64
	// Purity applies a tone-purity test to weak spikes that passed the
	// occupancy test as single: a genuine carrier concentrates its
	// energy in one fine frequency bin (the DFT 0.75 bins away is only
	// ≈30 % of the peak), while a hump of a stronger transponder's
	// data spectrum is broadband and roughly flat at that offset.
	// Spikes weaker than PurityMaxRel × the strongest spike and with
	// peak-to-sidelobe ratio below PurityMin are discarded as data
	// ghosts. Strong spikes and multi-occupied bins are never tested,
	// so the §5 same-bin counting path is unaffected.
	PurityMaxRel float64
	PurityMin    float64
	// RelaxedSharpness enables a second, lower-sharpness peak sweep.
	// In large collisions the aggregate data floor rises with √m and a
	// genuine carrier may clear its local neighborhood by less than
	// the strict Peaks.Sharpness ratio; candidates found only by the
	// relaxed sweep are kept when they prove themselves a tone (purity
	// ≥ PurityMin) or a beating same-bin pair (occupancy multiple).
	// Zero disables the second sweep.
	RelaxedSharpness float64
}

// DefaultParams returns the prototype configuration: 4 MHz sampling, LO
// at 914.3 MHz, λ at 915 MHz.
func DefaultParams() Params {
	return Params{
		SampleRate:       4e6,
		ReaderLO:         phy.BandLow,
		Wavelength:       geom.Wavelength(phy.NominalCarrier),
		Peaks:            dsp.DefaultPeakParams(),
		Occupancy:        dsp.DefaultOccupancyParams(),
		ClockImageReject: true,
		ClockImageRatio:  0.25,
		PurityMaxRel:     0.35,
		PurityMin:        1.8,
		RelaxedSharpness: 2.2,
	}
}

// Validate checks the parameters.
func (p *Params) Validate() error {
	if p.SampleRate <= 0 {
		return fmt.Errorf("core: sample rate %g must be positive", p.SampleRate)
	}
	if p.Wavelength <= 0 {
		return fmt.Errorf("core: wavelength %g must be positive", p.Wavelength)
	}
	if p.ClockImageRatio < 0 || p.ClockImageRatio >= 1 {
		return fmt.Errorf("core: clock-image ratio %g out of [0,1)", p.ClockImageRatio)
	}
	return nil
}
