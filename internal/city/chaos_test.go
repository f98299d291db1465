package city

import (
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"caraoke/internal/collector"
)

// chaosConfig is testConfig with the full failure model on: frame
// drops, connection kills, reader churn, and clock drift with periodic
// resync.
func chaosConfig() Config {
	cfg := testConfig()
	cfg.Chaos = Chaos{
		DropRate:    0.15,
		KillEvery:   3,
		ChurnRate:   0.2,
		DriftPPM:    50,
		ResyncEvery: 2,
	}
	return cfg
}

// TestChaosReproducible is the tentpole's core promise: two chaos runs
// with the same seed produce identical delivered / dropped /
// redelivered / deduped counters — and identical traffic results —
// because every injection decision is keyed to frame order, never
// wall-clock.
func TestChaosReproducible(t *testing.T) {
	run := func() *Result {
		t.Helper()
		res, err := Run(chaosConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Uplinks, b.Uplinks) {
		t.Errorf("uplink accounting diverges across identical seeds:\n%+v\n%+v", a.Uplinks, b.Uplinks)
	}
	if !reflect.DeepEqual(a.PerIntersection, b.PerIntersection) {
		t.Errorf("per-intersection stats diverge:\n%+v\n%+v", a.PerIntersection, b.PerIntersection)
	}
	if !reflect.DeepEqual(a.Decoded, b.Decoded) {
		t.Errorf("decoded sets diverge: %v vs %v", a.Decoded, b.Decoded)
	}
	if len(a.Uplinks) != 3 {
		t.Fatalf("want 3 uplink stats, got %d", len(a.Uplinks))
	}
	faultsSeen := 0
	for _, u := range a.Uplinks {
		faultsSeen += u.FramesLost + u.Kills + u.OfflineEpochs
	}
	if faultsSeen == 0 {
		t.Error("the chaos config injected nothing — the test is vacuous")
	}
}

// TestChaosLockstepPipelinedIdentical extends the determinism oracle
// to the failure model: the run loop with and without its lockstep
// barrier must agree on every chaos counter, because each reader's frame
// order, churn schedule, and clock history depend only on its own
// epoch sequence.
func TestChaosLockstepPipelinedIdentical(t *testing.T) {
	pipeCfg := chaosConfig()
	lockCfg := chaosConfig()
	lockCfg.lockstep = true
	pipe, err := Run(pipeCfg)
	if err != nil {
		t.Fatal(err)
	}
	lock, err := Run(lockCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pipe.Uplinks, lock.Uplinks) {
		t.Errorf("chaos accounting differs across run modes:\npipelined: %+v\nlockstep:  %+v",
			pipe.Uplinks, lock.Uplinks)
	}
	if !reflect.DeepEqual(pipe.PerIntersection, lock.PerIntersection) {
		t.Errorf("per-intersection stats differ across run modes:\n%+v\n%+v",
			pipe.PerIntersection, lock.PerIntersection)
	}
	if !reflect.DeepEqual(pipe.Decoded, lock.Decoded) {
		t.Errorf("decoded sets differ: %v vs %v", pipe.Decoded, lock.Decoded)
	}
}

// TestChaosKillsProduceNoLoss: with kills only (no drops, no churn),
// every report must land — each killed frame reached the collector
// before the client saw the error, and the redelivered copy is
// absorbed by dedupe. This is the at-least-once + idempotent-store
// contract end to end.
func TestChaosKillsProduceNoLoss(t *testing.T) {
	cfg := testConfig()
	cfg.Chaos = Chaos{KillEvery: 3}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kills := 0
	for _, u := range res.Uplinks {
		if u.Received != res.Epochs {
			t.Errorf("reader %d: received %d of %d — kills must not lose reports",
				u.ReaderID, u.Received, res.Epochs)
		}
		if u.ReportsLost != 0 || u.ClientDropped != 0 {
			t.Errorf("reader %d: lost %d, client dropped %d; want 0 loss", u.ReaderID, u.ReportsLost, u.ClientDropped)
		}
		// Batch=1: every kill forwards exactly one report the client
		// then resends, so the store absorbs exactly one duplicate per
		// kill — and reconnect count matches.
		if u.Deduped != u.Kills {
			t.Errorf("reader %d: %d deduped vs %d kills", u.ReaderID, u.Deduped, u.Kills)
		}
		if u.Reconnects != u.Kills {
			t.Errorf("reader %d: %d reconnects vs %d kills", u.ReaderID, u.Reconnects, u.Kills)
		}
		kills += u.Kills
	}
	if kills == 0 {
		t.Error("kill-every-3 over the run killed nothing")
	}
	if res.TotalReports != res.Epochs*3 {
		t.Errorf("produced %d reports, want %d", res.TotalReports, res.Epochs*3)
	}
}

// TestChaosLossAccounted: with silent drops only, the run completes
// (the drain barrier's loss budget absorbs the gap) and the books
// balance exactly: distinct arrivals = sends the client believed in −
// frames the wire ate, and the store's missing-sequence scan agrees.
func TestChaosLossAccounted(t *testing.T) {
	cfg := testConfig()
	cfg.Chaos = Chaos{DropRate: 0.25}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	for _, u := range res.Uplinks {
		if u.Received != u.Delivered-u.ReportsLost {
			t.Errorf("reader %d: received %d, want delivered %d − lost %d",
				u.ReaderID, u.Received, u.Delivered, u.ReportsLost)
		}
		if u.Deduped != 0 || u.Redelivered != 0 {
			t.Errorf("reader %d: %d deduped / %d redelivered without kills", u.ReaderID, u.Deduped, u.Redelivered)
		}
		if missing := res.Store.MissingSeqs(u.ReaderID, uint32(res.Epochs)); len(missing) != u.ReportsLost {
			t.Errorf("reader %d: store misses %d seqs %v, injector lost %d",
				u.ReaderID, len(missing), missing, u.ReportsLost)
		}
		lost += u.ReportsLost
	}
	if lost == 0 {
		t.Error("25% drop rate lost nothing — the test is vacuous")
	}
}

// TestChaosChurnShrinksSeqSpace: churned-out readers skip epochs
// entirely — no measurement, no sequence advance, no loss — so each
// reader's distinct arrivals equal its online epochs, and the summary
// totals follow the produced count instead of epochs × readers.
func TestChaosChurnShrinksSeqSpace(t *testing.T) {
	cfg := testConfig()
	cfg.Duration = 12 * time.Second
	cfg.Chaos = Chaos{ChurnRate: 0.2}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	produced, offline := 0, 0
	for _, u := range res.Uplinks {
		online := res.Epochs - u.OfflineEpochs
		if u.Received != online {
			t.Errorf("reader %d: received %d, want its %d online epochs", u.ReaderID, u.Received, online)
		}
		if u.ReportsLost != 0 || u.Deduped != 0 {
			t.Errorf("reader %d: churn alone must not lose or duplicate (%+v)", u.ReaderID, u)
		}
		if u.OfflineEpochs > 0 && u.Departures == 0 {
			t.Errorf("reader %d: %d offline epochs but no departures", u.ReaderID, u.OfflineEpochs)
		}
		produced += online
		offline += u.OfflineEpochs
	}
	if offline == 0 {
		t.Error("20% churn over 12 epochs benched nobody — the test is vacuous")
	}
	if res.TotalReports != produced {
		t.Errorf("summary counts %d reports, fleet produced %d", res.TotalReports, produced)
	}
	sum := 0
	for _, ix := range res.PerIntersection {
		sum += ix.Reports
	}
	if sum != produced {
		t.Errorf("per-intersection reports sum to %d, want %d", sum, produced)
	}
}

// TestChaosDriftShiftsTimestampsNotResults: clock drift must perturb
// only report timestamps — counts and decodes flow from untouched RNG
// streams — and periodic NTP resync must leave the final clocks closer
// to true time than free-running drift does.
func TestChaosDriftShiftsTimestampsNotResults(t *testing.T) {
	driftCfg := testConfig()
	driftCfg.Duration = 12 * time.Second
	driftCfg.Chaos = Chaos{DriftPPM: 20000} // a badly broken oscillator: 2%
	cleanLong, err := Run(Config{Readers: 3, Vehicles: 24, Duration: 12 * time.Second, Seed: 42, DecodeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	drift, err := Run(driftCfg)
	if err != nil {
		t.Fatal(err)
	}
	resyncCfg := driftCfg
	resyncCfg.Chaos.ResyncEvery = 2
	resync, err := Run(resyncCfg)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(cleanLong.PerIntersection, drift.PerIntersection) {
		t.Errorf("drift changed traffic results:\nclean: %+v\ndrift: %+v",
			cleanLong.PerIntersection, drift.PerIntersection)
	}
	if !reflect.DeepEqual(cleanLong.Decoded, drift.Decoded) {
		t.Errorf("drift changed decoded sets: %v vs %v", cleanLong.Decoded, drift.Decoded)
	}

	// The last report's timestamp deviation from true time is the error
	// the §7 speed service inherits; free-running 2% drift over 12 s
	// dwarfs what a reader that resyncs every 2 epochs accumulates.
	maxDev := func(res *Result) time.Duration {
		var worst time.Duration
		for _, u := range res.Uplinks {
			rep := res.Store.Latest(u.ReaderID)
			if rep == nil {
				t.Fatalf("reader %d has no retained reports", u.ReaderID)
			}
			truth := cleanLong.Store.Latest(u.ReaderID)
			dev := rep.Timestamp.Sub(truth.Timestamp)
			if dev < 0 {
				dev = -dev
			}
			if dev > worst {
				worst = dev
			}
		}
		return worst
	}
	freeDev, syncedDev := maxDev(drift), maxDev(resync)
	if freeDev == 0 {
		t.Error("2% drift left timestamps untouched")
	}
	if syncedDev >= freeDev {
		t.Errorf("resync did not help: %v synced vs %v free-running", syncedDev, freeDev)
	}
}

// TestChaosZeroValueIsClean: a zero Chaos config must take the clean
// path bit for bit — same results, no uplink accounting allocated.
func TestChaosZeroValueIsClean(t *testing.T) {
	plain, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Chaos = Chaos{} // explicit zero
	zero, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if zero.Uplinks != nil {
		t.Errorf("zero chaos allocated uplink stats: %+v", zero.Uplinks)
	}
	if !reflect.DeepEqual(plain.PerIntersection, zero.PerIntersection) ||
		!reflect.DeepEqual(plain.Decoded, zero.Decoded) ||
		plain.TotalReports != zero.TotalReports {
		t.Error("zero chaos config changed clean-run results")
	}
}

// TestChaosDegradedUplinkKeepsMeasuring: under chaos a reader whose
// uplink exhausts its retry budget is degraded, not dead. Killing every
// frame of every connection (KillEvery 1) fails each reader's first send
// and all of its redials, so every client gives up on its first report —
// yet the run must return nil, every reader must still measure every
// epoch, the drain must settle inside the accounted loss (a drain that
// waited for the dropped reports would time out and fail Run), and the
// whole accounting must be a pure function of the seed, with and
// without the lockstep barrier.
func TestChaosDegradedUplinkKeepsMeasuring(t *testing.T) {
	cfg := testConfig()
	cfg.Batch = 2
	cfg.Chaos = Chaos{KillEvery: 1}
	run := func(cfg Config) *Result {
		t.Helper()
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("a degraded uplink aborted the chaos run: %v", err)
		}
		return res
	}
	a := run(cfg)
	for _, ix := range a.PerIntersection {
		if want := a.Epochs * len(ix.Readers); ix.Reports != want {
			t.Errorf("intersection %d produced %d reports, want %d: a degraded reader stopped measuring",
				ix.Index, ix.Reports, want)
		}
	}
	for _, u := range a.Uplinks {
		if u.ClientDropped == 0 {
			t.Errorf("reader %d: no client-side drops — its uplink never degraded (%+v)", u.ReaderID, u)
		}
		// Every kill forwards its frame first, so the doomed first batch
		// did land (and its redeliveries were deduped); everything after
		// it was dropped at the client and never reached the wire.
		if u.Received != cfg.Batch || u.Deduped == 0 || u.Delivered != 0 {
			t.Errorf("reader %d: received %d (want the first batch of %d), deduped %d, delivered %d",
				u.ReaderID, u.Received, cfg.Batch, u.Deduped, u.Delivered)
		}
		if u.ClientDropped != a.Epochs {
			t.Errorf("reader %d: client dropped %d of %d reports", u.ReaderID, u.ClientDropped, a.Epochs)
		}
	}

	b := run(cfg)
	lockCfg := cfg
	lockCfg.lockstep = true
	lock := run(lockCfg)
	for what, other := range map[string]*Result{"second run": b, "lockstep": lock} {
		assertResultsEqual(t, a, other, what)
		if !reflect.DeepEqual(a.Uplinks, other.Uplinks) {
			t.Errorf("%s: uplink accounting diverges:\n%+v\n%+v", what, a.Uplinks, other.Uplinks)
		}
	}
}

// TestCleanRunSendErrorAborts is the other half of the degraded-uplink
// rule: a clean run drains over the lossless barrier, so there a retry
// budget running out — the one error a client's send returns — must
// abort the run loop where the reader stands.
func TestCleanRunSendErrorAborts(t *testing.T) {
	deadConn := func() (net.Conn, error) {
		client, server := net.Pipe()
		server.Close() // every write fails: io.ErrClosedPipe
		return client, nil
	}
	cfg := Config{Readers: 1, Vehicles: 4, Duration: 3 * time.Second, Seed: 5, DecodeEvery: -1}
	s, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	up, err := collector.DialFunc(deadConn)
	if err != nil {
		t.Fatal(err)
	}
	up.Retry = collector.RetryPolicy{Attempts: 2, BackoffMin: time.Millisecond, BackoffMax: time.Millisecond}
	epochs := int(cfg.Duration / epochLen)
	err = s.runPipelined(nil, []*collector.Client{up}, epochs)
	up.Close()
	if !errors.Is(err, collector.ErrUplinkDegraded) {
		t.Errorf("run loop returned %v, want the exhausted retry budget", err)
	}
	if s.posts[0].reports != 1 {
		t.Errorf("reader measured %d epochs past a fatal send error, want to stop at 1", s.posts[0].reports)
	}
}
