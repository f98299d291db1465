package reader

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"caraoke/internal/core"
	"caraoke/internal/geom"
	"caraoke/internal/rfsim"
	"caraoke/internal/transponder"
)

func testReader(t *testing.T, id uint32, base geom.Vec3) *Reader {
	t.Helper()
	r, err := New(Config{
		ID:         id,
		PoleBase:   base,
		PoleHeight: 3.8,
		RoadDir:    geom.V(1, 0, 0),
		TiltDeg:    60,
		NoiseSigma: 2e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestReaderMeasureCountsInRangeOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := testReader(t, 1, geom.V(0, -5, 0))
	devs := transponder.NewPopulation(transponder.DefaultPopulationParams(), 4, 100, rng)
	devs[0].Pos = geom.V(10, 0, 0)
	devs[1].Pos = geom.V(-8, -2, 0)
	devs[2].Pos = geom.V(20, 2, 0)
	devs[3].Pos = geom.V(500, 0, 0) // far outside the ~30 m range
	res, err := r.Measure(devs, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 3 {
		t.Errorf("counted %d, want 3 (far device must not respond)", res.Count)
	}
}

func TestReaderReportPackaging(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := testReader(t, 7, geom.V(0, -5, 0))
	devs := transponder.NewPopulation(transponder.DefaultPopulationParams(), 2, 200, rng)
	devs[0].Pos = geom.V(12, 0, 0)
	devs[1].Pos = geom.V(18, -3, 0)
	res, err := r.Measure(devs, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Date(2015, 8, 17, 10, 0, 0, 0, time.UTC)
	rep := r.Report(res, now)
	if rep.ReaderID != 7 || rep.Seq != 1 || !rep.Timestamp.Equal(now) {
		t.Fatalf("report header %+v", rep)
	}
	if rep.Count != res.Count || len(rep.Spikes) != len(res.Spikes) {
		t.Fatalf("report payload mismatch: %+v vs %+v", rep, res)
	}
	if len(rep.Spikes) > 0 && len(rep.Spikes[0].Channels) != 3 {
		t.Errorf("spike carries %d channels, want 3 (triangle array)", len(rep.Spikes[0].Channels))
	}
	rep2 := r.Report(res, now)
	if rep2.Seq != 2 {
		t.Errorf("sequence number not incrementing: %d", rep2.Seq)
	}
}

func TestReaderMeasureValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := testReader(t, 1, geom.V(0, -5, 0))
	if _, err := r.Measure(nil, 0, rng); err == nil {
		t.Error("zero queries accepted")
	}
	if _, err := New(Config{RoadDir: geom.V(0, 0, 1)}); err == nil {
		t.Error("vertical road direction accepted")
	}
	for _, sigma := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := New(Config{RoadDir: geom.V(1, 0, 0), NoiseSigma: sigma}); err == nil {
			t.Errorf("noise sigma %g accepted", sigma)
		}
	}
}

// TestEmptyRoadCountsZero: a reader on a road with no transponders
// reports no cars. The §10 window of ten queries holds that exactly;
// the window detector's gates are calibrated only there (the same 200
// windows count 673 cars at two queries and 155 at three, ROADMAP item
// 2), which is why the window is a constant everywhere a run sets it.
// The single-capture detector behind caraoke.Count is not clean: it
// reads 4 phantom cars in 200 empty captures at this seed, pinned so the
// number cannot grow unseen — item 2's fix moves it to 0.
func TestEmptyRoadCountsZero(t *testing.T) {
	r := testReader(t, 1, geom.V(0, -5, 0))
	rng := rand.New(rand.NewSource(4))
	for w := 0; w < 200; w++ {
		res, err := r.Measure(nil, 10, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != 0 {
			t.Fatalf("window %d: counted %d cars on an empty road", w, res.Count)
		}
	}
	rng = rand.New(rand.NewSource(4))
	phantoms := 0
	for w := 0; w < 200; w++ {
		mc, err := r.Query(nil, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.CountAcrossQueries([]*rfsim.MultiCapture{mc}, r.Params)
		if err != nil {
			t.Fatal(err)
		}
		phantoms += res.Count
	}
	if phantoms != 4 {
		t.Errorf("single-capture detector counted %d cars in 200 empty captures, pinned at 4", phantoms)
	}
}

// inRange places n devices along the street in front of r, every one of
// them triggered by its query.
func inRange(t *testing.T, r *Reader, n int, rng *rand.Rand) []*transponder.Device {
	t.Helper()
	devs := transponder.NewPopulation(transponder.DefaultPopulationParams(), n, 100, rng)
	for i, d := range devs {
		d.Pos = geom.V(-23+2*float64(i), float64(i%3), 0)
		if !d.TriggeredFrom(r.Center(), r.QueryAmplitude, r.Capture.Wavelength) {
			t.Fatalf("fixture: device %d at %v is out of range", i, d.Pos)
		}
	}
	return devs
}

// queryAllocCeiling is what one warmed Query of 24 in-range devices may
// allocate: rfsim.Capture's three objects (TestCaptureAllocBudget) and
// nothing of the reader's own. The parent (9e18237) read 14: it regrew
// its transmission list from nil on every query.
const queryAllocCeiling = 3

// TestQueryAllocBudget holds Query to its ceiling, beside
// rfsim.TestCaptureAllocBudget: counts do not depend on the host.
func TestQueryAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := testReader(t, 1, geom.V(0, -5, 0))
	devs := inRange(t, r, 24, rng)
	if _, err := r.Query(devs, rng); err != nil { // warm: envelopes modulated, r.txs grown
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(20, func() {
		if _, err := r.Query(devs, rng); err != nil {
			t.Fatal(err)
		}
	})
	if got > queryAllocCeiling {
		t.Errorf("Query allocates %.0f objects per call, ceiling %d", got, queryAllocCeiling)
	}
}

// measureAllocCeiling is what one warmed ten-query Measure of 24
// in-range devices may allocate. Its captures are the reader's, reused
// from window to window, and the analysis runs on the reader's scratch;
// 66a6458, which synthesized every query into fresh streams, read 41.
const measureAllocCeiling = 0

// TestMeasureAllocBudget holds a warmed Measure to its ceiling: counts
// do not depend on the host.
func TestMeasureAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := testReader(t, 1, geom.V(0, -5, 0))
	devs := inRange(t, r, 24, rng)
	got := testing.AllocsPerRun(10, func() { // the warm-up run shapes the window
		if _, err := r.Measure(devs, 10, rng); err != nil {
			t.Fatal(err)
		}
	})
	if got > measureAllocCeiling {
		t.Errorf("Measure allocates %.0f objects per window, ceiling %d", got, measureAllocCeiling)
	}
}

// TestMeasureMatchesFullCaptures: Measure synthesizes the reference
// antenna alone for all but its last query, and its result is still
// bit-equal to analysing ten full Query captures drawn from the same
// seed — the spikes, their Multiple verdicts and channels, the count.
func TestMeasureMatchesFullCaptures(t *testing.T) {
	const queries = 10
	for _, seed := range []int64{1, 2, 3} {
		// The devices spend replies, so each side gets its own copy.
		measured := testReader(t, 1, geom.V(0, -5, 0))
		got, err := measured.Measure(inRange(t, measured, 24, rand.New(rand.NewSource(seed))), queries, rand.New(rand.NewSource(seed+100)))
		if err != nil {
			t.Fatal(err)
		}
		full := testReader(t, 1, geom.V(0, -5, 0))
		devs := inRange(t, full, 24, rand.New(rand.NewSource(seed)))
		rng := rand.New(rand.NewSource(seed + 100))
		var mcs []*rfsim.MultiCapture
		for q := 0; q < queries; q++ {
			mc, err := full.Query(devs, rng)
			if err != nil {
				t.Fatal(err)
			}
			mcs = append(mcs, mc)
		}
		spikes, err := core.AnalyzeCaptures(mcs, full.Params)
		if err != nil {
			t.Fatal(err)
		}
		want := core.CountFromSpikes(spikes)
		if got.Count != want.Count || len(got.Spikes) != len(want.Spikes) {
			t.Fatalf("seed %d: Measure counts %d in %d spikes, full captures %d in %d",
				seed, got.Count, len(got.Spikes), want.Count, len(want.Spikes))
		}
		for i, g := range got.Spikes {
			w := want.Spikes[i]
			same := math.Float64bits(g.Freq) == math.Float64bits(w.Freq) && g.Bin == w.Bin &&
				math.Float64bits(g.Mag) == math.Float64bits(w.Mag) && g.Multiple == w.Multiple &&
				len(g.Channels) == len(w.Channels)
			for a := 0; same && a < len(g.Channels); a++ {
				same = math.Float64bits(real(g.Channels[a])) == math.Float64bits(real(w.Channels[a])) &&
					math.Float64bits(imag(g.Channels[a])) == math.Float64bits(imag(w.Channels[a]))
			}
			if !same {
				t.Errorf("seed %d, spike %d: Measure %+v, full captures %+v", seed, i, g, w)
			}
		}
	}
}

// TestDecodeIDsAllocsFlat: DecodeIDs synthesizes every decode query into
// the reader's one reference stream, so what it allocates does not grow
// with the query budget. The targets sit between the devices' carriers
// and never decode, so every budget is spent in full; 66a6458, which
// synthesized all three antennas into fresh streams per query, read 9
// objects at one query and 86 at twenty.
func TestDecodeIDsAllocsFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := testReader(t, 1, geom.V(0, -5, 0))
	devs := inRange(t, r, 24, rng)
	freqs := []float64{123.4e3, 456.7e3, 789.1e3}
	allocs := func(budget int) float64 {
		return testing.AllocsPerRun(5, func() {
			out, err := r.DecodeIDs(devs, freqs, budget, rng)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != 0 {
				t.Fatalf("fixture: %d of the off-carrier targets decoded", len(out))
			}
		})
	}
	one, twenty := allocs(1), allocs(20)
	t.Logf("DecodeIDs allocates %.0f objects at a budget of 1 query, %.0f at 20", one, twenty)
	if twenty > one {
		t.Error("allocations grow with the query budget")
	}
}

func TestMACCarrierSensePreventsHarmfulCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const readers = 6
	span := 20 * time.Second
	rate := 10.0 // aggressive: 10 queries/s per reader

	without := SimulateMAC(readers, span, rate, false, rng)
	with := SimulateMAC(readers, span, rate, true, rng)

	if without.QueryResponseOverlaps == 0 {
		t.Fatal("no harmful collisions without CSMA; contention model too weak to test")
	}
	if with.QueryResponseOverlaps != 0 {
		t.Errorf("CSMA left %d harmful query/response collisions (§9 claims zero)", with.QueryResponseOverlaps)
	}
	if with.QueriesSent == 0 {
		t.Error("CSMA starved all queries")
	}
	if with.QueriesDeferred == 0 {
		t.Error("CSMA never deferred despite heavy contention")
	}
}

func TestMACQueryQueryCollisionsAreAllowed(t *testing.T) {
	// §9: query/query overlaps are benign and CSMA needs no contention
	// window — two readers sensing an idle medium may fire together.
	rng := rand.New(rand.NewSource(5))
	with := SimulateMAC(8, 30*time.Second, 20, true, rng)
	if with.QueryQueryOverlaps == 0 {
		t.Log("no simultaneous queries observed (acceptable but unusual at this load)")
	}
	if with.QueryResponseOverlaps != 0 {
		t.Errorf("harmful collisions under CSMA: %d", with.QueryResponseOverlaps)
	}
}
