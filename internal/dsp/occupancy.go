package dsp

// Occupancy classifies how many transponder tones share one FFT bin.
// Caraoke only needs to distinguish "exactly one" from "two or more"
// (§5: a multi-occupied bin is counted as two; only three-or-more in one
// bin produces a counting error).
type Occupancy int

// Occupancy values.
const (
	OccupancySingle   Occupancy = iota // one tone in the bin
	OccupancyMultiple                  // two or more tones in the bin
)

// The dual-window test's fixed settings (see ProbeBank.Occupancy).
const (
	// OccupancyWindowFrac is the analysis window length as a fraction
	// of the capture. Shorter windows allow larger shifts, which
	// amplify the beat between two close tones.
	OccupancyWindowFrac = 0.25
	// occRelTolerance is the minimum relative magnitude change beyond
	// which the bin is declared multi-occupied. Single tones change
	// only by interference and noise; two tones beat against each
	// other.
	occRelTolerance = 0.2
	// occConsistencyTol is the minimum bound on |ρ₂ − ρ₁²| for a single
	// tone, where ρᵢ = R(shiftᵢ)/R(0). Two tones in a bin violate the
	// quadratic phase relation even when the magnitudes happen to
	// match.
	occConsistencyTol = 0.45
	// occKMag and occKCons scale the self-calibrated interference floor
	// into the magnitude and consistency gates. The wider of the fixed
	// tolerance and the calibrated gate applies.
	occKMag  = 3.5
	occKCons = 5
)

// occShifts are the two window start offsets, as fractions of the
// capture length, at which the spike is re-measured. The second must be
// exactly twice the first so the phase-consistency check (ρ₂ = ρ₁² for a
// single tone) applies.
var occShifts = [2]float64{0.375, 0.75}

// ClassifyBin applies the time-shift test of §5 (see
// ProbeBank.Occupancy) to the tone at frequency freqHz within the
// capture. It is a thin allocating wrapper over Plan.ClassifyBin, the
// pooled variant per-worker hot paths use.
func ClassifyBin(samples []complex128, sampleRate, freqHz float64) Occupancy {
	var pl Plan
	return pl.ClassifyBin(samples, sampleRate, freqHz)
}
