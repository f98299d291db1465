package main

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"caraoke/internal/city"
	"caraoke/internal/collector"
	"caraoke/internal/core"
	"caraoke/internal/rfsim"
	"caraoke/internal/transponder"
)

// cityConfig is ROADMAP's reference city for the given number of epochs:
// pipelined, single collector, decode every 5th epoch, serial readers.
func cityConfig(e *env, epochs int) city.Config {
	return city.Config{
		Readers:  e.sz.cityReaders,
		Vehicles: e.sz.cityVehicles,
		Parked:   e.sz.cityParked,
		Duration: time.Duration(epochs) * time.Second,
		Seed:     e.seed,
		Workers:  1,
	}
}

// validCityID reports whether a decoded id can belong to the city's
// fleet. internal/city keeps its vehicles private, but it documents how
// it numbers them: agency 0x0E5A, random upper serial bits, and the
// vehicle's 1-based fleet index in the low 16. A frame that passed its
// CRC by chance lands in that range once in ~300 tries.
func validCityID(e *env, id uint64) bool {
	agency, index := id>>48, id&0xFFFF
	return agency == uint64(transponder.DefaultPopulationParams().Agency) &&
		index >= 1 && index <= uint64(e.sz.cityVehicles+e.sz.cityParked)
}

// cityFingerprint folds what a run observed — per-intersection
// car-seconds and the decoded-id set — into a string two runs of one
// seed must share.
func cityFingerprint(res *city.Result) string {
	var b strings.Builder
	for _, ix := range res.PerIntersection {
		fmt.Fprintf(&b, "%d:%d:%d/", ix.Index, ix.CarSeconds, ix.Peak)
	}
	for _, d := range res.Decoded {
		fmt.Fprintf(&b, "%x,", d.ID)
	}
	return b.String()
}

// checkCity applies city_ref's output checks to one finished run,
// counting what does not hold as failed operations of o, and returns how
// many of the decoded ids are fleet ids.
func checkCity(e *env, o *outcome, res *city.Result, epochs int) (fleetIDs int) {
	if want := e.sz.cityReaders * epochs; res.TotalReports != want {
		o.failed += abs(want - res.TotalReports)
		o.problemf("city delivered %d reports, want %d", res.TotalReports, want)
	}
	for id := 1; id <= e.sz.cityReaders; id++ {
		if miss := res.Store.MissingSeqs(uint32(id), uint32(epochs)); len(miss) > 0 {
			o.failed += len(miss)
			o.problemf("reader %d: %d reports missing after drain", id, len(miss))
		}
	}
	wrong := 0
	for _, d := range res.Decoded {
		if !validCityID(e, d.ID) {
			wrong++
		} else if _, ok := res.Store.FindCar(d.ID); !ok {
			o.failed++
			o.problemf("decoded id %#x is not in the find-my-car index", d.ID)
		}
	}
	checkWrongIDs(o, "city_ref", wrong, len(res.Decoded))
	return len(res.Decoded) - wrong
}

// countsOf lists every per-epoch §5 count a single-collector run
// reported: the density mix the traced chain reproduces.
func countsOf(res *city.Result, store func(readerID uint32) *collector.Store) []int {
	var counts []int
	ids := make([]uint32, 0, len(res.Poles))
	for id := range res.Poles {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		_, cs := store(id).CountSeries(id, res.Start, res.End)
		counts = append(counts, cs...)
	}
	return counts
}

func prepareCity(e *env) (*prepared, error) {
	// Set-up is what precedes a user's timed run: laying out the city,
	// and one short run that leaves the process warm (FFT plan registry,
	// heap sized to the working set).
	warm, err := city.Run(cityConfig(e, e.sz.cityWarmEpochs))
	if err != nil {
		return nil, err
	}
	epochs := e.sz.cityRoundEpochs
	measure := func(_ *tracer, dur time.Duration) *outcome {
		o := &outcome{}
		// Rounds take turns over citySeeds cities laid out from seeds derived
		// from the run's: how many cars a city's readers see, and so how much
		// work an epoch is and how many ids it yields, is the seed's doing,
		// and a few cities together say more about the program and less about
		// the seed than one. A city is one piece of work timed again and
		// again, and must come out the same every time.
		took := make(pieces, e.sz.citySeeds) // of Run alone; laying the city out is set-up
		fingerprint := make([]string, e.sz.citySeeds)
		decoded := make([]int, e.sz.citySeeds)
		round := 0
		_, err := rounds(dur, func() error {
			k := round % e.sz.citySeeds
			round++
			cfg := cityConfig(e, epochs)
			cfg.Seed += int64(k) * 1_000_003
			sim, err := city.NewSim(cfg)
			if err != nil {
				return err
			}
			t0 := time.Now()
			res, err := sim.Run()
			wall := time.Since(t0)
			o.attempted += e.sz.cityReaders * epochs
			if err != nil {
				return err
			}
			fleetIDs := checkCity(e, o, res, epochs)
			if fp := cityFingerprint(res); fingerprint[k] == "" {
				fingerprint[k], decoded[k] = fp, fleetIDs
			} else if fp != fingerprint[k] {
				o.failed++
				o.problemf("city result differs between two runs of seed %d", cfg.Seed)
			}
			took.add(k, wall)
			return nil
		})
		if err != nil {
			o.failed++
			o.problemf("city.Run: %v", err)
		}
		seconds, cities := took.total()
		ids := 0
		for _, n := range decoded {
			ids += n
		}
		o.opsPerS = took.rate(e.sz.cityReaders * epochs)
		o.opMs = 1e3 * seconds / float64(cities*epochs)
		o.recoveredShare = float64(ids) / float64(cities*(e.sz.cityVehicles+e.sz.cityParked))
		return o
	}
	var ch *chain
	traced := func(tr *tracer, dur time.Duration) *outcome {
		if ch == nil {
			counts := countsOf(warm, func(uint32) *collector.Store { return warm.Store })
			if ch, err = newChain(e, counts); err != nil {
				o := &outcome{failed: 1}
				o.problemf("chain set-up: %v", err)
				return o
			}
		}
		return ch.measure(tr, dur)
	}
	closeAll := func() {
		if ch != nil {
			ch.close()
		}
	}
	return &prepared{measure: measure, traced: traced, close: closeAll}, nil
}

// chain is the harness-owned stand-in for city.Run in traced runs: the
// same per-reader-epoch sequence of public calls a city reader makes —
// Query×10 → AnalyzeCaptures → Report → (every 5th epoch) DecodeAll fed
// by live queries → Marshal → Client.Send → WaitHighWater → FindCar —
// on one goroutine, over scenes whose densities follow a city run's
// reported counts.
type chain struct {
	e       *env
	scenes  []*scene
	epoch   []int // epochs each scene has run
	scratch core.Scratch
	tgt     *stormTarget
	client  *collector.Client
	// decoded and wrong count the ids decoded so far that are and are not
	// in their scene's truth.
	decoded, wrong int
}

// chainScenes is how many scenes the chain cycles through.
const chainScenes = 16

func newChain(e *env, counts []int) (*chain, error) {
	if len(counts) == 0 {
		return nil, errors.New("no counts to draw scene densities from")
	}
	ch := &chain{e: e, epoch: make([]int, chainScenes)}
	rng := e.rng(2)
	for i := 0; i < chainScenes; i++ {
		sc, err := newScene(uint32(i+1), counts[rng.Intn(len(counts))], rng)
		if err != nil {
			return nil, err
		}
		ch.scenes = append(ch.scenes, sc)
	}
	var err error
	if ch.tgt, err = singleCollector(e.sz.stormKeep); err != nil {
		return nil, err
	}
	if ch.client, err = collector.Dial(ch.tgt.addrs[0], 5*time.Second); err != nil {
		ch.tgt.stop()
		return nil, err
	}
	return ch, nil
}

func (ch *chain) close() {
	ch.client.Close()
	ch.tgt.stop()
}

// readerEpoch runs scene i's next epoch.
func (ch *chain) readerEpoch(o *outcome, tr *tracer, i int) error {
	sc := ch.scenes[i]
	epoch := ch.epoch[i]
	ch.epoch[i]++
	op := tr.root(0, "harness", "reader_epoch")
	defer tr.end(op)

	query := func(parent int) (*rfsim.MultiCapture, error) {
		s := tr.child(parent, "rfsim", "Reader.Query")
		defer tr.end(s)
		return sc.rd.Query(sc.devs, sc.rng)
	}
	mcs := make([]*rfsim.MultiCapture, 0, ch.e.sz.queries)
	for q := 0; q < ch.e.sz.queries; q++ {
		mc, err := query(op)
		if err != nil {
			return err
		}
		mcs = append(mcs, mc)
	}
	s := tr.child(op, "core", "Scratch.AnalyzeCaptures")
	spikes, err := ch.scratch.AnalyzeCaptures(mcs, sc.rd.Params, 1)
	res := core.CountFromSpikes(spikes)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.child(op, "reader", "Reader.Report")
	rep := sc.rd.Report(res, sceneEpoch.Add(time.Duration(epoch)*time.Second))
	tr.end(s)

	lookup := uint64(1) // find-my-car for an id nobody decoded still walks the index
	if freqs := singleTargets(spikes); epoch%5 == 0 && len(sc.devs) > 0 && len(freqs) > 0 {
		s = tr.child(op, "core", "core.DecodeAll")
		src := func() ([]complex128, error) {
			mc, err := query(s)
			if err != nil {
				return nil, err
			}
			return mc.Reference(), nil
		}
		out, err := core.DecodeAll(src, sc.rd.Params.SampleRate, freqs, ch.e.sz.decodeBudget)
		tr.end(s)
		if err != nil && !errors.Is(err, core.ErrNeedMoreCollisions) {
			return err
		}
		for k := range rep.Spikes {
			dr, ok := out[rep.Spikes[k].FreqHz]
			if !ok {
				continue
			}
			id := dr.Frame.ID()
			if !sc.truth[id] {
				ch.wrong++
				continue
			}
			ch.decoded++
			rep.Spikes[k].DecodedID = id
			lookup = id
		}
	}

	s = tr.child(op, "telemetry", "Report.Marshal")
	_, err = rep.Marshal()
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.child(op, "collector", "Client.Send")
	err = ch.client.Send(rep)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.child(op, "collector", "Store.WaitHighWater")
	err = ch.tgt.wait(map[uint32]uint32{rep.ReaderID: rep.Seq}, 10*time.Second)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.child(op, "collector", "Store.FindCar")
	_, found := ch.tgt.stores[0].FindCar(lookup)
	tr.end(s)
	if lookup != 1 && !found {
		o.failed++
		o.problemf("chain: id %#x decoded and delivered but not findable", lookup)
	}
	return nil
}

// measure runs reader-epochs round-robin over the scenes for dur. One
// round is every scene once; layer["chain.epoch_ms"] is the mean time
// per reader-epoch, what city.overhead_ratio divides by.
func (ch *chain) measure(tr *tracer, dur time.Duration) *outcome {
	o := &outcome{layer: map[string]float64{}}
	var epochMs []float64
	walls, err := rounds(dur, func() error {
		for i := range ch.scenes {
			t0 := time.Now()
			o.attempted++
			if err := ch.readerEpoch(o, tr, i); err != nil {
				return err
			}
			epochMs = append(epochMs, ms(time.Since(t0)))
		}
		return nil
	})
	if err != nil {
		o.failed++
		o.problemf("chain: %v", err)
	}
	checkWrongIDs(o, "chain", ch.wrong, ch.decoded+ch.wrong)
	// A scene decodes on every 5th of its epochs and all scenes are at the
	// same epoch, so rounds five apart do the same kind of work.
	took := make(pieces, 5)
	for r, w := range walls {
		took.add(r%len(took), w)
	}
	o.opsPerS = took.rate(len(ch.scenes))
	o.opMs = 1e3 / o.opsPerS
	o.recoveredShare = 1
	o.layer["chain.epoch_ms"] = sum(epochMs) / float64(max(len(epochMs), 1))
	return o
}
