package main

import (
	"fmt"
	"math/rand"
	"time"

	"caraoke/internal/core"
	"caraoke/internal/geom"
	"caraoke/internal/reader"
	"caraoke/internal/rfsim"
	"caraoke/internal/telemetry"
	"caraoke/internal/transponder"
)

// sizes fixes how much work each workload does. The defaults are for
// the 2-core reference host; the smoke test shrinks them.
type sizes struct {
	setupRepeats int           // least set-ups per run; setup_s is their median
	setupFloor   time.Duration // set-up is repeated until it has taken this long in all

	densities    []int // in-range devices per scene class
	refDensity   int   // the class op_ms is sampled on
	countScenes  int   // replay_count scenes per density
	decodeScenes int   // replay_decode scenes per density
	queries      int   // queries per active window (§10)
	decodeBudget int   // collisions recorded per decode scene

	cityReaders, cityVehicles, cityParked int
	cityRoundEpochs                       int // epochs per timed city.Run
	citySeeds                             int // cities city_ref's rounds take turns over
	cityWarmEpochs                        int // epochs of the set-up warm-up Run
	queryCityEpochs                       int // epochs of query_mix's set-up city
	queryPartitions                       int
	queryKeep                             int // per-reader retention of query_mix's stores

	stormIDs      int // reader ids the storm sends as
	stormSeqs     int // seqs per id per round
	stormKeep     int
	openLoopRate  int           // reports/s of the freshness probe
	idSpace       int           // uniform /car id space (beyond the 4096-entry cache)
	warmOps       int           // requests played into the handler in set-up, enough to fill the cache
	writeEvery    int           // every n-th query_mix operation is a write
	writeBatch    int           // reports per write
	queryBlock    int           // operations of one client timed as one piece
	queryCycle    int           // operations a client repeats; a multiple of queryBlock
	queryStep     time.Duration // query_mix's clock advances this much per operation
	carCheckEvery int           // every n-th known-id /car body is checked
}

var defaultSizes = sizes{
	setupRepeats: 3,
	setupFloor:   3 * time.Second,

	densities:    []int{4, 12, 24, 40},
	refDensity:   24,
	countScenes:  24,
	decodeScenes: 8,
	queries:      10,
	decodeBudget: 120,

	cityReaders: 8, cityVehicles: 200, cityParked: 8,
	cityRoundEpochs: 5,
	citySeeds:       4,
	cityWarmEpochs:  5,
	queryCityEpochs: 20,
	queryPartitions: 4,
	queryKeep:       256,

	stormIDs:      64,
	stormSeqs:     2,
	stormKeep:     256,
	openLoopRate:  20000,
	idSpace:       20000,
	warmOps:       60000,
	writeEvery:    50,
	writeBatch:    8,
	queryBlock:    100,
	queryCycle:    5000,
	queryStep:     50 * time.Microsecond,
	carCheckEvery: 8,
}

// env is what a workload gets: the seed its inputs derive from, the
// sizes, and how many generator goroutines (and connections) it may use.
type env struct {
	seed  int64
	sz    sizes
	procs int
}

// rng returns the seeded stream for one named part of a workload, so
// adding draws to one part never shifts another's inputs.
func (e *env) rng(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(e.seed ^ salt*0x9E3779B9))
}

// scene is one reader and the transponders inside its interrogation
// zone, with the truth the harness checks outputs against.
type scene struct {
	rd      *reader.Reader
	devs    []*transponder.Device
	density int
	truth   map[uint64]bool // ids of the devices a query triggers
	rng     *rand.Rand      // drives this scene's queries
}

// newScene places n devices on the two lanes of the street a pole-
// mounted reader watches (the geometry internal/city uses), all within
// the ~30 m interrogation range.
func newScene(id uint32, n int, rng *rand.Rand) (*scene, error) {
	rd, err := reader.New(reader.Config{
		ID:         id,
		PoleBase:   geom.V(-5, 2, 0),
		PoleHeight: 3.8,
		RoadDir:    geom.V(1, 0, 0),
		TiltDeg:    60,
		NoiseSigma: 2e-6,
		Workers:    1,
	})
	if err != nil {
		return nil, err
	}
	sc := &scene{rd: rd, density: n, truth: map[uint64]bool{}, rng: rand.New(rand.NewSource(rng.Int63()))}
	pop := transponder.DefaultPopulationParams()
	c := rd.Center()
	for i := 0; i < n; i++ {
		lane := -2.0
		if rng.Intn(2) == 1 {
			lane = 2
		}
		pos := geom.V(c.X-27+54*rng.Float64(), lane, 0)
		serial := rng.Uint64()&^uint64(0xFFFF) | uint64(i+1)
		d := transponder.NewRandomDevice(pop, serial, pos, rng)
		sc.devs = append(sc.devs, d)
		if d.TriggeredFrom(c, rd.QueryAmplitude, rd.Capture.Wavelength) {
			sc.truth[d.ID()] = true
		}
	}
	return sc, nil
}

// window is one pre-synthesised §10 active window of a scene.
type window struct {
	sc  *scene
	mcs []*rfsim.MultiCapture
}

func (sc *scene) window(queries int) (*window, error) {
	w := &window{sc: sc}
	for q := 0; q < queries; q++ {
		mc, err := sc.rd.Query(sc.devs, sc.rng)
		if err != nil {
			return nil, err
		}
		w.mcs = append(w.mcs, mc)
	}
	return w, nil
}

// collide is one query's collision on the reference antenna alone: what
// Reader.Query does (trigger, reply, capture) with a one-element array,
// at a third of the synthesis cost. It is the recording rig for the
// decode streams, which only ever read the reference antenna; the
// windows under analysis come from Reader.Query itself.
func (sc *scene) collide() ([]complex128, error) {
	var txs []rfsim.Transmission
	c := sc.rd.Center()
	for _, d := range sc.devs {
		if !d.TriggeredFrom(c, sc.rd.QueryAmplitude, sc.rd.Capture.Wavelength) {
			continue
		}
		tx, err := d.Reply(sc.rd.Params.ReaderLO, sc.rd.Params.SampleRate, 0, sc.rng)
		if err != nil {
			return nil, err
		}
		txs = append(txs, tx)
	}
	ref := rfsim.Array{Elements: sc.rd.Array.Elements[:1]}
	mc, err := rfsim.Capture(sc.rd.Capture, ref, txs, sc.rng)
	if err != nil {
		return nil, err
	}
	return mc.Reference(), nil
}

// record returns a stream of n reference-antenna collisions, in query
// order.
func (sc *scene) record(n int) ([][]complex128, error) {
	stream := make([][]complex128, 0, n)
	for q := 0; q < n; q++ {
		c, err := sc.collide()
		if err != nil {
			return nil, err
		}
		stream = append(stream, c)
	}
	return stream, nil
}

// buildWindows synthesises perDensity windows at each density class.
func buildWindows(e *env, perDensity int) ([]*window, error) {
	rng := e.rng(1)
	var ws []*window
	for _, n := range e.sz.densities {
		for i := 0; i < perDensity; i++ {
			sc, err := newScene(uint32(len(ws)+1), n, rng)
			if err != nil {
				return nil, err
			}
			w, err := sc.window(e.sz.queries)
			if err != nil {
				return nil, err
			}
			ws = append(ws, w)
		}
	}
	return ws, nil
}

// singleTargets lists the CFOs of a window's single-occupancy spikes —
// what the §8 decoder is run on (same-bin pairs do not combine
// coherently).
func singleTargets(spikes []core.Spike) []float64 {
	var freqs []float64
	for _, sp := range spikes {
		if !sp.Multiple {
			freqs = append(freqs, sp.Freq)
		}
	}
	return freqs
}

// sceneEpoch anchors report timestamps (internal/city's base time).
var sceneEpoch = time.Date(2015, 8, 17, 8, 0, 0, 0, time.UTC)

// buildReports analyses every window once and returns the reports a
// reader would uplink for them: the realistic payloads ingest_storm
// sends.
func buildReports(e *env) ([]*telemetry.Report, error) {
	ws, err := buildWindows(e, e.sz.countScenes)
	if err != nil {
		return nil, err
	}
	var scratch core.Scratch
	var reps []*telemetry.Report
	for _, w := range ws {
		spikes, err := scratch.AnalyzeCaptures(w.mcs, w.sc.rd.Params, 1)
		if err != nil {
			return nil, fmt.Errorf("analyzing a %d-device window: %w", w.sc.density, err)
		}
		reps = append(reps, w.sc.rd.Report(core.CountFromSpikes(spikes), sceneEpoch))
	}
	return reps, nil
}
