package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// outcome is what measuring a prepared workload yields.
type outcome struct {
	attempted, failed int
	// problems lists output checks that did not hold; any entry makes
	// the run incorrect.
	problems []string
	// opsPerS, opMs and recoveredShare are the end-to-end metrics
	// (see endToEnd); layer holds per-layer quantities the same run
	// observed on the way, keyed by perLayer name.
	opsPerS, opMs, recoveredShare float64
	layer                         map[string]float64
}

func (o *outcome) problemf(format string, args ...any) {
	// One line per kind of problem is enough to act on; a broken build
	// would otherwise print one per operation.
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// prepared is a workload after set-up: inputs generated, servers up.
// measure may be called more than once (the traced run measures twice,
// spans off then on); close stops whatever set-up started.
type prepared struct {
	measure func(tr *tracer, dur time.Duration) *outcome
	// traced, when set, replaces measure in the traced run: city.Run is
	// opaque from outside, so city_ref traces a harness-owned chain.
	traced func(tr *tracer, dur time.Duration) *outcome
	close  func()
}

type workload struct {
	name string
	why  string // BENCHMARK.json's one line
	op   string // what one operation is
	// prepare does the workload's set-up; its wall time is setup_s.
	prepare func(e *env) (*prepared, error)
}

// workloads is initialised in init to break the reference cycle with
// manifest().
var workloads []workload

func init() {
	workloads = []workload{
		{
			name:    "city_ref",
			why:     "whole chain as caraoke-sim runs it: 8 readers, 200 vehicles, 8 parked; only here do rfsim and the city coordinator work",
			op:      "reader-epoch delivered (city.Run of 5 epochs per round, rounds taking turns over 4 cities; op_ms is per city epoch)",
			prepare: prepareCity,
		},
		{
			name:    "replay_count",
			why:     "capture replay of 10-query windows at 4/12/24/40 devices: reader DSP (dsp+core analysis) with the simulator outside the timed region",
			op:      "active window analysed, counted, reported and marshalled (op_ms at 24 devices)",
			prepare: prepareReplayCount,
		},
		{
			name:    "replay_decode",
			why:     "recorded collision streams through DecodeAll: coherent combining and phy demodulation dominate while FFT and peak code is idle",
			op:      "transponder id attempted by the decoder, decoded or given up after 120 collisions (op_ms is per id in a 24-device scene)",
			prepare: prepareReplayDecode,
		},
		{
			name:    "ingest_storm",
			why:     "single-report frames over one TCP connection into one collector: telemetry and collector per-report cost, DSP idle, writes only",
			op:      "report sent and visible in the store (op_ms is the mean Client.Send)",
			prepare: prepareIngest,
		},
		{
			name:    "query_mix",
			why:     "HTTP find-my-car, speed and parking over a 4-partition cluster beside store writes, keys inside and beyond the api cache",
			op:      "HTTP request answered or write batch ingested (op_ms is the median HTTP request of a block of 100 operations)",
			prepare: prepareQueryMix,
		},
	}
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// prepareTimed runs a workload's set-up at least e.sz.setupRepeats times
// and until the set-ups have taken e.sz.setupFloor together — a set-up of
// half a second is mostly host noise, and more repeats of it cost little —
// keeps the last and returns the median wall time of all of them.
func prepareTimed(w *workload, e *env) (*prepared, float64, error) {
	var keep *prepared
	var secs []float64
	for len(secs) < e.sz.setupRepeats || sum(secs) < e.sz.setupFloor.Seconds() {
		if keep != nil {
			keep.close()
		}
		t0 := time.Now()
		p, err := w.prepare(e)
		if err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		keep = p
	}
	return keep, median(secs), nil
}

// rounds calls round until dur has elapsed (at least once) and returns
// each round's wall time.
func rounds(dur time.Duration, round func() error) ([]time.Duration, error) {
	var walls []time.Duration
	for start := time.Now(); len(walls) == 0 || time.Since(start) < dur; {
		t0 := time.Now()
		if err := round(); err != nil {
			return walls, err
		}
		walls = append(walls, time.Since(t0))
	}
	return walls, nil
}

// The reference host's cores switch between two speeds, the slower about
// 1.7 times slower, and stay in either for some tens of milliseconds. How
// much of a run is spent in the slow one drifts between a quarter and
// nearly all of it over minutes, so a total, a mean or a median over a run
// lands wherever that share puts it, and so does the upper quartile of
// rounds a second long: no round that long escapes the slow speed. What
// does repeat is how long a piece of work takes while the core stays
// fast. A run is therefore cut into pieces of a few milliseconds that
// recur — the same window, the same scene, a round of the same reports, a
// block of as many requests — every piece is timed, and the run reports
// the level its fastest pieces reach. A change to the program moves every
// piece, the fastest too.

// fastShare is the share of a piece's timings that are at or below the
// value reported for it.
const fastShare = 0.02

// fastest is the ceil(fastShare·n)-th smallest of xs: the smallest of up
// to 50 timings, the 2nd percentile of thousands (where the single
// smallest is an outlier's to decide); NaN for none.
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(int(math.Ceil(fastShare*float64(len(s)))), 1)-1]
}

// pieces holds every timing of a run, in seconds, by the identity of the
// piece of work timed: pieces that do the same work share one.
type pieces [][]float64

func (p pieces) add(id int, d time.Duration) { p[id] = append(p[id], d.Seconds()) }

// total is the seconds the run's work takes once at the fast speed: the
// sum of fastest over the identities the run got to, and how many those
// are.
func (p pieces) total() (seconds float64, seen int) {
	for _, xs := range p {
		if len(xs) > 0 {
			seconds += fastest(xs)
			seen++
		}
	}
	return seconds, seen
}

// rate is operations per second at the fast speed, when every piece is
// perPiece operations.
func (p pieces) rate(perPiece int) float64 {
	seconds, seen := p.total()
	return float64(seen*perPiece) / seconds
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
