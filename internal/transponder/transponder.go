// Package transponder models the e-toll transponders Caraoke reads:
// battery-powered active RFIDs with no MAC protocol (§3 of the paper).
// Each device has its own free-running oscillator — hence a
// device-specific carrier in the 914.3–915.5 MHz band and a random
// phase at every reply — and answers any detected query after a fixed
// 100 µs turnaround with its 256-bit OOK/Manchester frame.
//
// The package substitutes for the physical E-ZPass tags of the paper's
// experiments. The carrier population follows the empirical statistics
// the authors measured on 155 real transponders (footnote 7: mean
// 914.84 MHz, σ 0.21 MHz), clamped to the specified band.
package transponder

import (
	"fmt"
	"math"
	"math/rand"

	"caraoke/internal/geom"
	"caraoke/internal/phy"
	"caraoke/internal/rfsim"
)

// Empirical carrier population statistics (§5, footnote 7).
const (
	CarrierMean  = 914.84e6 // Hz
	CarrierSigma = 0.21e6   // Hz
	DefaultTxAmp = 1.0      // normalized transmit amplitude
	// DefaultSensitivity is the minimum received query amplitude that
	// triggers a reply. With unit query amplitude and free-space loss
	// it corresponds to the ≈100-foot (30.5 m) reader range of §9
	// footnote 13: λ/(4π·30.5 m) ≈ 8.5e-4.
	DefaultSensitivity = 8.5e-4
	// DefaultBatteryReplies is how many replies a fresh battery
	// sustains. §3: a transponder works for ~10 years; at tollbooth
	// duty that is a large but finite reply budget.
	DefaultBatteryReplies = 50_000_000
)

// Device is one transponder.
type Device struct {
	Frame       phy.Frame // identity and payload (fixed at manufacture)
	CarrierHz   float64   // this device's oscillator frequency
	Pos         geom.Vec3 // transponder position (windshield)
	TxAmplitude float64   // transmit amplitude
	Sensitivity float64   // minimum query amplitude that triggers a reply
	// RepliesLeft is the remaining battery budget; the device stays
	// silent once it reaches zero.
	RepliesLeft int64

	envelope []float64   // cached modulated frame, at phy.SampleRate
	wave     *rfsim.Wave // cached envelope on this device's carrier
}

// New creates a device with the given identity and carrier, positioned
// at pos, with default power/sensitivity parameters.
func New(frame phy.Frame, carrierHz float64, pos geom.Vec3) *Device {
	return &Device{
		Frame:       frame,
		CarrierHz:   carrierHz,
		Pos:         pos,
		TxAmplitude: DefaultTxAmp,
		Sensitivity: DefaultSensitivity,
		RepliesLeft: DefaultBatteryReplies,
	}
}

// ID returns the transponder's tolling identity.
func (d *Device) ID() uint64 { return d.Frame.ID() }

// CFO returns this device's carrier offset relative to a reader local
// oscillator (positive when the device runs above the LO; Caraoke pins
// its LO at the bottom of the band so offsets span 0–1.2 MHz).
func (d *Device) CFO(readerLO float64) float64 { return d.CarrierHz - readerLO }

// Alive reports whether the battery still sustains replies.
func (d *Device) Alive() bool { return d.RepliesLeft > 0 }

// Triggered reports whether a query arriving with the given amplitude
// at the device wakes it (§3: the transponder responds to any detected
// query — there is no MAC).
func (d *Device) Triggered(queryAmp float64) bool {
	return d.Alive() && math.Abs(queryAmp) >= d.Sensitivity
}

// TriggeredFrom reports whether a query transmitted from queryPos with
// the given amplitude reaches this device strongly enough to trigger
// it, under free-space propagation.
func (d *Device) TriggeredFrom(queryPos geom.Vec3, txAmp, wavelength float64) bool {
	dist := d.Pos.Dist(queryPos)
	if dist <= 0 {
		return d.Alive()
	}
	return d.Triggered(txAmp * rfsim.FreeSpaceAmplitude(dist, wavelength))
}

// prepare builds the cached modulated frame, at the front end's one
// rate, phy.SampleRate, and its reply waveform at the carrier offset a
// reader with its LO at the bottom of the band hears (phy.BandLow, the
// reader's default). Reply calls it lazily; Snapshot calls it up front
// so every copy shares one immutable envelope and waveform instead of
// each rebuilding them.
func (d *Device) prepare() error {
	if d.envelope != nil {
		return nil
	}
	env, err := phy.ModulateFrame(&d.Frame, phy.SampleRate)
	if err != nil {
		return fmt.Errorf("transponder %s: %w", d.Frame.String(), err)
	}
	d.envelope = env
	d.wave = rfsim.NewWave(env, d.CFO(phy.BandLow))
	return nil
}

// Snapshot returns a working copy of the device frozen at its current
// position and battery budget, sharing the modulated-envelope and
// waveform caches (immutable once built — the copy never rebuilds
// them). It is the per-epoch hand-off a pipelined harness gives a
// reader goroutine: the copy can be measured while the original moves
// on to later epochs, with no shared mutable state between them.
// Battery draw against a snapshot stays on the snapshot; at the default
// 50M-reply budget that bookkeeping loss is unobservable over any
// simulated run.
func (d *Device) Snapshot() (*Device, error) {
	if err := d.prepare(); err != nil {
		return nil, err
	}
	cp := *d
	return &cp, nil
}

// Reply produces this device's response as a transmission ready for
// the channel simulator. Each call draws a fresh random oscillator
// phase — the property the coherent-combining decoder relies on (§8) —
// and consumes one reply from the battery budget. The response is the
// whole frame from the capture window's first sample (the fixed 100 µs
// turnaround): startSample must be 0 and sampleRate phy.SampleRate, and
// any other is an error. The reply carries the device's cached
// waveform; a reader LO, or a carrier, other than the one it was built
// for rebuilds it, on this copy of the device.
func (d *Device) Reply(readerLO, sampleRate float64, startSample int, rng *rand.Rand) (rfsim.Transmission, error) {
	if sampleRate != phy.SampleRate {
		return rfsim.Transmission{}, fmt.Errorf("transponder %s: %g Hz: %w", d.Frame.String(), sampleRate, phy.ErrSampleRate)
	}
	if startSample != 0 {
		return rfsim.Transmission{}, fmt.Errorf("transponder %s: a reply starts the capture window, not at sample %d", d.Frame.String(), startSample)
	}
	if !d.Alive() {
		return rfsim.Transmission{}, fmt.Errorf("transponder %s: battery exhausted", d.Frame.String())
	}
	if err := d.prepare(); err != nil {
		return rfsim.Transmission{}, err
	}
	if cfo := d.CFO(readerLO); d.wave.CFO() != cfo {
		d.wave = rfsim.NewWave(d.envelope, cfo)
	}
	d.RepliesLeft--
	return rfsim.Transmission{
		Envelope:  d.envelope,
		Phase:     rng.Float64() * 2 * math.Pi,
		Amplitude: d.TxAmplitude,
		Pos:       d.Pos,
		Wave:      d.wave,
	}, nil
}
