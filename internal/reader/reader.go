// Package reader models the Caraoke reader device (§4, §9, §10): it
// queries nearby transponders, digitizes the resulting collision on
// its antenna array, runs the core algorithms, and packages the result
// for the telemetry uplink. It also implements the reader-side CSMA
// MAC of §9 and the duty-cycle schedule of §10.
package reader

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"caraoke/internal/core"
	"caraoke/internal/geom"
	"caraoke/internal/phy"
	"caraoke/internal/rfsim"
	"caraoke/internal/telemetry"
	"caraoke/internal/transponder"
)

// Reader is one pole-mounted Caraoke unit.
type Reader struct {
	ID      uint32
	Array   rfsim.Array
	Params  core.Params
	Capture rfsim.CaptureConfig
	// QueryAmplitude is the trigger sinewave's transmit amplitude; it
	// sets the ~100-foot interrogation range together with transponder
	// sensitivity.
	QueryAmplitude float64

	seq uint32
	txs []rfsim.Transmission // the latest query's replies; captures do not retain them
	// window holds Measure's captures, every antenna, and ref the one
	// reference stream DecodeIDs decodes; each query overwrites its own.
	window  []*rfsim.MultiCapture
	ref     rfsim.MultiCapture
	analyze *core.Scratch
}

// Config bundles reader construction parameters.
type Config struct {
	ID         uint32
	PoleBase   geom.Vec3 // road-plane position of the pole
	PoleHeight float64   // meters (paper: 12.5–13 feet ≈ 3.8–4 m)
	RoadDir    geom.Vec3 // along-street direction
	TiltDeg    float64   // antenna-plane tilt (paper: 60°)
	NoiseSigma float64   // receiver noise, linear amplitude per sample
	// Workers is ignored: a reader analyzes and decodes on its own
	// goroutine. It stays for callers built against the worker pool.
	Workers int
}

// New builds a reader with the prototype's triangle array and capture
// configuration (4 MHz complex sampling, 512 µs window).
func New(cfg Config) (*Reader, error) {
	params := core.DefaultParams()
	arr, err := rfsim.TriangleOnPole(cfg.PoleBase, cfg.PoleHeight, cfg.RoadDir, cfg.TiltDeg, params.Wavelength/2)
	if err != nil {
		return nil, fmt.Errorf("reader: %w", err)
	}
	r := &Reader{
		ID:     cfg.ID,
		Array:  arr,
		Params: params,
		Capture: rfsim.CaptureConfig{
			SampleRate: params.SampleRate,
			NumSamples: phy.SamplesPerResponse(params.SampleRate),
			Wavelength: params.Wavelength,
			NoiseSigma: cfg.NoiseSigma,
		},
		QueryAmplitude: 1.0,
	}
	if err := r.Capture.Validate(); err != nil {
		return nil, fmt.Errorf("reader: %w", err)
	}
	return r, nil
}

// Center returns the antenna array center.
func (r *Reader) Center() geom.Vec3 { return r.Array.Center() }

// Query triggers every in-range transponder once and captures the
// collision on every antenna, into a capture the caller owns.
func (r *Reader) Query(devs []*transponder.Device, rng *rand.Rand) (*rfsim.MultiCapture, error) {
	mc := new(rfsim.MultiCapture)
	if err := r.query(mc, len(r.Array.Elements), devs, rng); err != nil {
		return nil, err
	}
	return mc, nil
}

// query triggers every in-range transponder once and synthesizes the
// collision into mc's first keep antennas. Out-of-range or battery-dead
// devices stay silent (§3). Whatever keep is, rng advances as a full
// capture advances it.
func (r *Reader) query(mc *rfsim.MultiCapture, keep int, devs []*transponder.Device, rng *rand.Rand) error {
	r.txs = r.txs[:0]
	center := r.Center()
	for _, d := range devs {
		if !d.TriggeredFrom(center, r.QueryAmplitude, r.Capture.Wavelength) {
			continue
		}
		tx, err := d.Reply(r.Params.ReaderLO, r.Params.SampleRate, 0, rng)
		if err != nil {
			return fmt.Errorf("reader %d: %w", r.ID, err)
		}
		r.txs = append(r.txs, tx)
	}
	return rfsim.CaptureInto(mc, keep, r.Capture, r.Array, r.txs, rng)
}

// Measure performs one duty-cycle active window: `queries` back-to-back
// queries (§10 allows up to 10 per 10 ms window), multi-query spike
// analysis, and the §5 count. The window's captures are the reader's,
// reused from one window to the next. Analysis reads the reference
// antenna of every capture and the others of the last alone, so only
// the last query synthesizes every antenna; the RNG advances as full
// queries advance it.
func (r *Reader) Measure(devs []*transponder.Device, queries int, rng *rand.Rand) (core.CountResult, error) {
	if queries <= 0 {
		return core.CountResult{}, fmt.Errorf("reader %d: queries must be positive", r.ID)
	}
	for len(r.window) < queries {
		r.window = append(r.window, new(rfsim.MultiCapture))
	}
	mcs := r.window[:queries]
	for i, mc := range mcs {
		keep := 1
		if i == len(mcs)-1 {
			keep = len(r.Array.Elements)
		}
		if err := r.query(mc, keep, devs, rng); err != nil {
			return core.CountResult{}, err
		}
	}
	if r.analyze == nil {
		// A reader measures strictly one epoch at a time, so one
		// analysis scratch serves its lifetime.
		// Spikes returned here are scratch-backed and valid until the
		// next Measure; Report deep-copies what telemetry retains.
		r.analyze = &core.Scratch{}
	}
	spikes, err := r.analyze.AnalyzeCaptures(mcs, r.Params, 1)
	if err != nil {
		return core.CountResult{}, err
	}
	return core.CountFromSpikes(spikes), nil
}

// DecodeIDs runs the §8 collision decoder against the current scene:
// it keeps issuing fresh queries (each a new shared collision) and
// coherently combines them per target CFO until every target's frame
// passes its checksum or maxQueries runs out. Targets that stay
// undecodable within the budget are simply absent from the result —
// §12.4's point is that the collisions are shared, so slow targets
// never cost the fast ones extra queries.
//
// The decoder reads the reference antenna alone, so each query
// synthesizes only that stream, into one the reader reuses: DecodeAll
// reads a capture only until it asks for the next.
func (r *Reader) DecodeIDs(devs []*transponder.Device, freqs []float64, maxQueries int, rng *rand.Rand) (map[float64]core.DecodeResult, error) {
	if len(freqs) == 0 {
		return nil, nil
	}
	src := func() ([]complex128, error) {
		if err := r.query(&r.ref, 1, devs, rng); err != nil {
			return nil, err
		}
		return r.ref.Reference(), nil
	}
	out, err := core.DecodeAll(src, r.Params.SampleRate, freqs, maxQueries)
	if err != nil && !errors.Is(err, core.ErrNeedMoreCollisions) {
		return nil, fmt.Errorf("reader %d: %w", r.ID, err)
	}
	return out, nil
}

// Report converts a measurement into a telemetry report stamped with
// the reader's (NTP-disciplined) local time.
func (r *Reader) Report(res core.CountResult, localTime time.Time) *telemetry.Report {
	r.seq++
	rep := &telemetry.Report{
		ReaderID:  r.ID,
		Seq:       r.seq,
		Timestamp: localTime,
		Count:     res.Count,
	}
	for _, s := range res.Spikes {
		// Deep-copy the channels: spikes from Measure are backed by the
		// reader's analysis scratch and will be overwritten next epoch,
		// while reports outlive it in the asynchronous uplink queue.
		chans := make([]complex128, len(s.Channels))
		copy(chans, s.Channels)
		rep.Spikes = append(rep.Spikes, telemetry.SpikeRecord{
			FreqHz:   s.Freq,
			Multiple: s.Multiple,
			Channels: chans,
		})
	}
	return rep
}
