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
	"math"

	"caraoke/internal/dsp"
	"caraoke/internal/geom"
	"caraoke/internal/phy"
)

// Params holds the three physical values of a reader's front end. The
// detector has no settings: §5's thresholds are the constants below.
type Params struct {
	// SampleRate of the captures, Hz: the front end's one rate,
	// phy.SampleRate (4 MHz); Validate refuses any other.
	SampleRate float64
	// ReaderLO is the receive local-oscillator frequency. Caraoke pins
	// it at the bottom of the transponder band so every CFO is
	// positive and spans 0–1.2 MHz.
	ReaderLO float64
	// Wavelength of the nominal carrier, for AoA conversion.
	Wavelength float64
}

// DefaultParams returns the prototype configuration: 4 MHz sampling, LO
// at 914.3 MHz, λ at 915 MHz.
func DefaultParams() Params {
	return Params{
		SampleRate: phy.SampleRate,
		ReaderLO:   phy.BandLow,
		Wavelength: geom.Wavelength(phy.NominalCarrier),
	}
}

// Validate checks the parameters: the sample rate is phy.SampleRate,
// the LO is finite, and the wavelength finite and positive.
func (p *Params) Validate() error {
	if p.SampleRate != phy.SampleRate {
		return fmt.Errorf("core: sample rate %g Hz: %w", p.SampleRate, phy.ErrSampleRate)
	}
	if math.IsNaN(p.ReaderLO) || math.IsInf(p.ReaderLO, 0) {
		return fmt.Errorf("core: reader LO %g must be finite", p.ReaderLO)
	}
	if !(p.Wavelength > 0) || math.IsInf(p.Wavelength, 0) {
		return fmt.Errorf("core: wavelength %g must be finite and positive", p.Wavelength)
	}
	return nil
}

// The three peak sweeps of the analysis.
var (
	// strictPeaks finds a capture's unambiguous carriers.
	strictPeaks = dsp.DefaultPeakParams()
	// relaxedPeaks is the second sweep of the same spectrum. In large
	// collisions the aggregate data floor rises with √m and a genuine
	// carrier may clear its local neighborhood by less than the strict
	// sharpness ratio; candidates only this sweep finds are kept when
	// they prove themselves a tone (purity ≥ purityMin) or a beating
	// same-bin pair (occupancy multiple).
	relaxedPeaks = dsp.PeakParams{Threshold: 4, Sharpness: 2.2, SharpRadius: 10}
	// averagedPeaks sweeps the spectrum averaged over a window's K
	// queries. There the floor is smooth (variance shrinks with K), so
	// the sensitive detector is a MAD-scaled excess over the local
	// median rather than a magnitude ratio (Sharpness 1 turns the ratio
	// test off): a weak carrier at a large collision's floor adds only
	// ~2.5× the local level, but tens of MADs of the smoothed floor.
	averagedPeaks = dsp.PeakParams{Threshold: 2, Sharpness: 1, SharpRadius: 16, ExcessSigma: 5}
)

const (
	// clockImageRatio is the largest weak/strong magnitude ratio at
	// which a spike one Manchester bit rate (500 kHz) from a stronger
	// one is dropped as that transponder's residual clock line.
	clockImageRatio = 0.25
	// The tone-purity test: a genuine carrier concentrates its energy
	// in one fine frequency bin (the DFT 0.75 bins away is only ≈30 % of
	// the peak), while a hump of a stronger transponder's data spectrum
	// is broadband and roughly flat at that offset. Spikes weaker than
	// purityMaxRel × the strongest and with a peak-to-sidelobe ratio
	// below purityMin are discarded as data ghosts. Strong spikes and
	// multi-occupied bins are never tested, so the §5 same-bin counting
	// path is unaffected.
	purityMaxRel = 0.35
	purityMin    = 1.8
)
