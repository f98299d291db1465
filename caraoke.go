// Package caraoke is a from-scratch reproduction of "Caraoke: An
// E-Toll Transponder Network for Smart Cities" (SIGCOMM 2015). It
// counts, localizes, decodes, and speed-tracks unmodified e-toll
// transponders from their collision signals, exploiting the devices'
// large carrier-frequency offsets (CFOs) in the frequency domain.
//
// The package is a facade over the internal subsystems:
//
//   - internal/dsp — FFT, Goertzel, spectral peaks, the §5
//     dual-window occupancy test
//   - internal/phy — the 256-bit OOK/Manchester transponder protocol
//   - internal/rfsim — complex-baseband channel simulation (the
//     substitute for over-the-air captures)
//   - internal/transponder — the E-ZPass-style device model
//   - internal/core — counting, AoA localization, coherent-combining
//     decoding, speed estimation
//   - internal/reader, internal/telemetry, internal/collector — the
//     reader device, its uplink protocol, and the city backend
//
// The exported aliases below give downstream users the primary types
// without reaching into internal packages; the runnable programs in
// examples/ and cmd/ show complete scenarios.
package caraoke

import (
	"math/rand"

	"caraoke/internal/core"
	"caraoke/internal/geom"
	"caraoke/internal/phy"
	"caraoke/internal/reader"
	"caraoke/internal/rfsim"
	"caraoke/internal/transponder"
)

// Re-exported core types.
type (
	// Params holds a reader front end's physical values (sample rate,
	// LO, wavelength); the detector itself has no settings.
	Params = core.Params
	// Spike is one transponder's footprint in a collision: CFO plus
	// per-antenna channels.
	Spike = core.Spike
	// CountResult is the §5 counting estimate.
	CountResult = core.CountResult
	// AoAMeasurement is a per-transponder angle of arrival (§6).
	AoAMeasurement = core.AoAMeasurement
	// Observation is a localized, timestamped sighting used for speed
	// estimation (§7).
	Observation = core.Observation
	// DecodeResult is a successful §8 collision decode.
	DecodeResult = core.DecodeResult
	// Frame is the 256-bit transponder response content.
	Frame = phy.Frame
	// Device is an e-toll transponder.
	Device = transponder.Device
	// Reader is a pole-mounted Caraoke reader.
	Reader = reader.Reader
	// ReaderConfig configures reader construction.
	ReaderConfig = reader.Config
	// MultiCapture is a multi-antenna baseband capture.
	MultiCapture = rfsim.MultiCapture
	// Vec3 is a road-coordinate point (x along road, y across, z up).
	Vec3 = geom.Vec3
)

// DefaultParams returns the prototype configuration: 4 MHz complex
// sampling, LO at 914.3 MHz, λ/2 antenna spacing at 915 MHz.
func DefaultParams() Params { return core.DefaultParams() }

// NewReader builds a reader with the prototype's triangular antenna
// array on a pole.
func NewReader(cfg ReaderConfig) (*Reader, error) { return reader.New(cfg) }

// NewTransponders creates n transponders with carriers drawn from the
// empirical population the paper measured (mean 914.84 MHz,
// σ 0.21 MHz), with unique ids. Position them via Device.Pos.
func NewTransponders(n int, seed int64) []*Device {
	rng := rand.New(rand.NewSource(seed))
	return transponder.NewPopulation(transponder.DefaultPopulationParams(), n, 1, rng)
}

// V constructs a road-coordinate point (meters).
func V(x, y, z float64) Vec3 { return geom.V(x, y, z) }

// Count runs the §5 counting pipeline on one capture.
func Count(mc *MultiCapture, p Params) (CountResult, error) {
	return core.CountAcrossQueries([]*MultiCapture{mc}, p)
}

// CountAcrossQueries runs the counting pipeline over several
// successive captures (a reader's §10 active window collects ~10),
// which is substantially more accurate in large collisions.
func CountAcrossQueries(mcs []*MultiCapture, p Params) (CountResult, error) {
	return core.CountAcrossQueries(mcs, p)
}

// Analyze extracts per-transponder spikes (CFO, channels, occupancy)
// from one capture.
func Analyze(mc *MultiCapture, p Params) ([]Spike, error) {
	return core.AnalyzeCapture(mc, p)
}

// EstimateAoA converts a spike's inter-antenna phases into an angle of
// arrival using the reader's array geometry. p must pass
// Params.Validate.
func EstimateAoA(s Spike, r *Reader, p Params) (AoAMeasurement, error) {
	if err := p.Validate(); err != nil {
		return AoAMeasurement{}, err
	}
	return core.EstimateAoA(s, r.Array, p.Wavelength)
}

// Decode recovers the frame of the transponder whose CFO spike sits at
// targetFreq by coherently combining collisions from src until the
// checksum passes (§8).
func Decode(src core.CaptureSource, p Params, targetFreq float64, maxQueries int) (DecodeResult, error) {
	out, err := core.DecodeAll(src, p.SampleRate, []float64{targetFreq}, maxQueries)
	return out[targetFreq], err
}

// EstimateSpeed computes a car's speed from two sightings (§7).
func EstimateSpeed(a, b Observation) (core.SpeedEstimate, error) {
	return core.EstimateSpeed(a, b)
}
