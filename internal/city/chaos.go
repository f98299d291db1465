package city

// Chaos wiring: the failure model a city run can turn on — seeded
// uplink fault injection (internal/faults), reader churn, and per-
// reader clock drift — and the accounting that makes a chaos run
// assertable. Everything here derives from Config.Seed, so two chaos
// runs with the same configuration produce identical delivered /
// dropped / redelivered / deduped counters; and everything is gated on
// Chaos.Active(): a clean run builds no injector, schedule or drifting
// clock and prints the same bytes with the layer compiled in. The two
// kinds of run still differ in one rule of the shared run loop: clean,
// any send error aborts; under chaos a degraded uplink is a counted
// loss and the reader keeps measuring.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"caraoke/internal/clock"
	"caraoke/internal/cluster"
	"caraoke/internal/collector"
	"caraoke/internal/faults"
	"caraoke/internal/telemetry"
)

// Chaos configures the failure model of a run. The zero value injects
// nothing and leaves every clean-run code path untouched.
type Chaos struct {
	// DropRate and KillEvery inject frame-level uplink faults (see
	// faults.Config): silent drops, and forwarded kills (the
	// duplicate-producing case). The run's Config.Seed drives injection,
	// preserving the one-seed-reproduces-everything contract.
	DropRate  float64
	KillEvery int
	// ChurnRate drives the parked-car RSU population: the per-reader,
	// per-epoch probability of starting an offline span (the reader
	// leaves mid-run and later rejoins). Offline readers measure
	// nothing: their sequence numbers do not advance and their claimed
	// devices fall to overlapping readers or go unread.
	ChurnRate float64
	// DriftPPM bounds each reader's free-running clock drift magnitude
	// in parts per million; each reader draws a seeded offset (up to
	// ±driftMaxInitialOffset) and drift rate (up to ±DriftPPM) at
	// construction. 0 means perfect clocks — report timestamps are
	// exactly the simulated epoch stamps, as before.
	DriftPPM float64
	// ResyncEvery runs an NTP-style clock.Sync on every drifting reader
	// each k-th epoch, bounding the drift the speed service sees to the
	// sync accuracy (tens of ms, §6). 0 never resyncs: clocks wander
	// for the whole run.
	ResyncEvery int
	// KillPartition and KillAtSeq arm a deterministic collector crash in
	// a partitioned run (Config.Partitions ≥ 2): partition KillPartition
	// stops ingesting from each homed reader once that reader's uplink
	// crosses report sequence KillAtSeq, the reader rehomes to its ring
	// successor, and its at-least-once client redelivers the cut frame
	// there. Keying the kill to sequence numbers — never wall-clock —
	// makes the crash, the reroute, and every recovery counter
	// seed-reproducible. KillAtSeq ≤ 0 arms nothing. The kill alone does
	// not make Chaos.Active() true: it loses no reports, so a
	// failover-only run drains with zero loss and duplicate budgets.
	KillPartition int
	KillAtSeq     int
}

// Active reports whether any part of the failure model is switched on.
func (c Chaos) Active() bool {
	return c.faultConfig(0).Active() || c.ChurnRate > 0 || c.DriftPPM > 0
}

// faultConfig is the injector configuration of the uplink faults, seeded.
func (c Chaos) faultConfig(seed int64) faults.Config {
	return faults.Config{Seed: seed, DropRate: c.DropRate, KillEvery: c.KillEvery}
}

func (c Chaos) validate() error {
	if err := c.faultConfig(0).Validate(); err != nil {
		return err
	}
	if c.ChurnRate < 0 || c.ChurnRate > 1 {
		return fmt.Errorf("city: churn rate %g outside [0,1]", c.ChurnRate)
	}
	if c.DriftPPM < 0 || c.ResyncEvery < 0 {
		return fmt.Errorf("city: drift %g ppm and resync interval %d must be non-negative", c.DriftPPM, c.ResyncEvery)
	}
	if c.KillPartition < 0 {
		return fmt.Errorf("city: kill partition %d must be non-negative", c.KillPartition)
	}
	return nil
}

// driftMaxInitialOffset bounds a drifting reader's initial clock error
// (a reader that last synced a while ago, not one that never synced).
const driftMaxInitialOffset = 50 * time.Millisecond

// UplinkStats is one reader's delivery accounting over a chaos run,
// joining three vantage points that must reconcile: the client (what
// the reader believes it sent), the injector (what the wire actually
// did), and the store (what the city actually received).
type UplinkStats struct {
	ReaderID uint32

	// Client view, in reports.
	Delivered     int // sends the client believes succeeded
	Redelivered   int // rewritten after a failed write (at-least-once duplicates)
	Reconnects    int // successful redials
	ClientDropped int // abandoned: past the retry budget, or queued at Close

	// Injector view.
	FramesLost  int // frames silently dropped on the wire
	ReportsLost int // reports inside those frames — the true uplink loss
	Kills       int // connections killed after the frame was forwarded

	// Store view, in reports.
	Received int // distinct reports landed
	Deduped  int // duplicate copies absorbed by (ReaderID, Seq) dedupe

	// Churn view.
	OfflineEpochs int // epochs the reader was absent (seq never advanced)
	Departures    int // distinct offline spans
}

// chaosRun is the live fault state of one Run: the injector, the churn
// schedule, and the per-reader wire accounting harvested from injector
// events. lost and dup are written under mu by the reader goroutines'
// synchronous event callbacks and read only after the readers join.
// They record the faulted reports' sequence numbers, not just counts:
// in a partitioned run a seq localizes its loss or duplicate to the one
// partition that owns it, which is what lets per-partition drain
// barriers carry exact budgets instead of a global slop.
type chaosRun struct {
	inj   *faults.Injector
	sched *faults.ChurnSchedule

	mu   sync.Mutex
	lost map[uint32][]uint32 // seqs inside dropped frames (never arrived)
	dup  map[uint32][]uint32 // seqs inside killed frames (arrived, then resent)
}

// newChaosRun builds the run's fault state, or returns nil when the
// config injects nothing (the clean path's single check).
func newChaosRun(cfg Config, epochs int, ids []uint32) *chaosRun {
	if !cfg.Chaos.Active() {
		return nil
	}
	cr := &chaosRun{
		sched: faults.NewChurnSchedule(cfg.Seed, ids, epochs, cfg.Chaos.ChurnRate),
		lost:  make(map[uint32][]uint32),
		dup:   make(map[uint32][]uint32),
	}
	cr.inj = faults.New(cfg.Chaos.faultConfig(cfg.Seed))
	// Every injected event carries the faulted frame's bytes; parsing
	// them back recovers exactly which reports were lost (the drain
	// barrier's loss budget) or forwarded-then-resent (the expected
	// duplicate count). This is what turns "some packets got dropped"
	// into counters a test can assert.
	cr.inj.OnEvent = func(ev faults.Event) {
		rs, err := telemetry.ReadBatch(bytes.NewReader(ev.Payload))
		if err != nil {
			return // not a telemetry frame; nothing to account
		}
		cr.mu.Lock()
		defer cr.mu.Unlock()
		for _, r := range rs {
			if ev.Kind == faults.Drop {
				cr.lost[r.ReaderID] = append(cr.lost[r.ReaderID], r.Seq)
			} else {
				cr.dup[r.ReaderID] = append(cr.dup[r.ReaderID], r.Seq)
			}
		}
	}
	return cr
}

// faulted returns the seqs of a reader's reports inside dropped frames
// and inside killed (arrived, then resent) frames.
func (cr *chaosRun) faulted(id uint32) (lost, dup []uint32) {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	return cr.lost[id], cr.dup[id]
}

// activeMask returns the epoch's per-post online mask, or nil when no
// churn is configured (every reader always on).
func (cr *chaosRun) activeMask(posts []*post, epoch int) []bool {
	if cr == nil || cr.sched == nil {
		return nil
	}
	mask := make([]bool, len(posts))
	for i, p := range posts {
		mask[i] = cr.sched.Active(p.rd.ID, epoch)
	}
	return mask
}

// uplinkStats reconciles the final per-reader accounting for the
// Result. The store view sums across partitions, dead ones included.
func (cr *chaosRun) uplinkStats(posts []*post, clients []*collector.Client, cl *cluster.Cluster, epochs int) []UplinkStats {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	out := make([]UplinkStats, len(posts))
	for i, p := range posts {
		id := p.rd.ID
		st := clients[i].Stats()
		fs := cr.inj.Stats(fmt.Sprintf("reader-%d", id))
		out[i] = UplinkStats{
			ReaderID:      id,
			Delivered:     st.Delivered,
			Redelivered:   st.Redelivered,
			Reconnects:    st.Reconnects,
			ClientDropped: st.Dropped,
			FramesLost:    fs.Drops,
			ReportsLost:   len(cr.lost[id]),
			Kills:         fs.Kills,
			Received:      cl.SeqsReceived(id),
			Deduped:       cl.Deduped(id),
			OfflineEpochs: epochs - cr.sched.ActiveEpochs(id, epochs),
			Departures:    cr.sched.Departures(id),
		}
	}
	return out
}

// initClocks gives each post its drifting local clock and the private
// RNG stream its NTP exchanges consume. Both streams are derived from
// the run seed and the reader id only — never from the measurement
// RNG — so switching drift on cannot perturb counts or decodes, and a
// reader's sync history is identical however the readers interleave
// (each reader syncs in its own epoch order).
func initClocks(cfg Config, posts []*post) {
	if cfg.Chaos.DriftPPM <= 0 {
		return
	}
	for _, p := range posts {
		crng := newSeededRand(cfg.Seed ^ int64(p.rd.ID)*0x6C62272E07BB0142)
		offset := time.Duration((crng.Float64()*2 - 1) * float64(driftMaxInitialOffset))
		drift := (crng.Float64()*2 - 1) * cfg.Chaos.DriftPPM
		p.clk = clock.New(offset, drift, baseTime)
		p.syncRNG = newSeededRand(cfg.Seed ^ int64(p.rd.ID)*0x100000001B3)
	}
}

func newSeededRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
