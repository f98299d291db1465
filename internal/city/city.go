// Package city is the city-scale simulation harness the paper's §1 and
// §4 motivate: a seeded grid of intersections whose readers each measure
// an epoch (capture → FFT → §5 count → optional §8 decode), ship the
// report over TCP to the collector tier (internal/cluster) and take the
// next, never waiting on one another — the §10/§12.5 deployment model.
//
// The ground truth (streets, vehicles, parked cars) is a world.World;
// Sim is the deployed system around one handle to it. NewSim builds the
// world, and the coordinator in runPipelined alone advances it, claims
// its devices (§9) and hands each reader snapshots of its claim through
// a bounded queue: readers, uplinks and the collector never see the
// world. The one known leak is summarize's World.Parked call, which
// copies the parking answer from the truth (ROADMAP item 5 removes it);
// TestSystemReadsNoTruth keeps every other function off the handle but
// the §7 scorer (below).
//
// The run scores itself against that truth (Result.Score). The
// coordinator alone computes it, from the claim it already makes
// (truthOf): it rides each epochJob to its reader, where post.score —
// the only reader of job.truth — bins the report's count and decodes
// against it after the report is built. Measurement, reports and the
// uplink never read it, and summarize merges the posts' tallies in
// reader order. summarize also builds the run's speed and parking
// services and answers a speed check per decoded car (Result.Speeds);
// only then does scoreSpeeds, the §7 scorer, read the world's speed
// view. TestSystemReadsNoTruth holds that too.
//
// The collector tier (internal/cluster) owns the collector-side
// decisions: Cluster.Dial routes each uplink to its reader's current
// home partition, rerouting it after a failover cut, and Cluster.Drain
// charges each reader's reports to the partitions that own them. The
// city hands it only what readers know: each reader's grid cell, the
// kill plan, the injector's dial wrap, and at the end one account per
// reader (seqs sent, lost and duplicated on the wire, given up by the
// client) with the drain timeout.
//
// The harness is deterministic: all randomness flows from Config.Seed
// through per-subsystem RNG streams (the world; per reader, counting and
// §8 decoding), each reader consumes its streams in epoch order against
// frozen snapshots, and every cross-goroutine merge happens in a fixed
// order, so two runs with the same configuration produce identical
// results however the scheduler interleaves the readers (the tests prove
// it against a per-epoch barrier).
package city

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"caraoke/internal/city/world"
	"caraoke/internal/clock"
	"caraoke/internal/cluster"
	"caraoke/internal/collector"
	"caraoke/internal/geom"
	"caraoke/internal/reader"
	"caraoke/internal/telemetry"
	"caraoke/internal/transponder"
)

// The city's fixed scales. They are constants, not Config fields: a run
// is described by what changes its result or its wire traffic.
const (
	// epochLen is the measurement cadence: every epoch each reader runs
	// one §10 active window.
	epochLen = time.Second
	// blockM is the street-grid spacing in meters.
	blockM = 200.0
	// rangeM is the interrogation radius in meters a reader claims
	// transponders within (the paper's ~100 ft).
	rangeM = 30.0
	// noiseSigma is the per-sample receiver noise.
	noiseSigma = 2e-6
	// lookahead is how many epochs a fast reader may run ahead of the
	// slowest before the coordinator stops feeding it. Bounded lookahead
	// keeps the snapshot working set proportional to readers × lookahead;
	// results are identical for any depth.
	lookahead = 4
	// speedLimit is the §7 speed service's limit in m/s: answers above
	// it are flagged SPEEDING. The fleet drives at 8–14 m/s (world.New).
	speedLimit = 13.0
	// speedTolHz is how far a sighting's CFO may sit from a decoded
	// car's to count as that car in its speed check.
	speedTolHz = 3e3
)

// baseTime anchors simulated timestamps (the morning of the paper's
// Fig 12 traffic trace). A fixed epoch keeps reports, and therefore
// collector state, identical across runs.
var baseTime = time.Date(2015, 8, 17, 8, 0, 0, 0, time.UTC)

// Config sizes the city and its workload. Zero fields take the
// documented defaults, so callers only set what they care about.
type Config struct {
	// Readers is the number of pole-mounted readers. Intersections get
	// two each (one per crossing street); an odd count leaves the last
	// intersection with a single reader.
	Readers int
	// Vehicles is the number of cars circulating on the street grid.
	Vehicles int
	// Parked adds stationary curbside cars near intersection 0 — the
	// street-parking workload (occupancy + find-my-car).
	Parked int
	// Duration is simulated time, in whole one-second epochs (default
	// 30s).
	Duration time.Duration
	// Workers is ignored: each reader analyzes and decodes on its own
	// goroutine. It stays for callers built against the worker pool.
	Workers int
	// Seed drives every random choice in the run; any value,
	// including zero, is a valid (and reproducible) seed.
	Seed int64
	// UnequippedFrac is the fraction of vehicles NOT carrying a
	// transponder. The zero value means every car is equipped; US
	// deployments run 0.11–0.30 unequipped (§1). (Phrased negatively
	// so the meaningful "all equipped" case is the Go zero value and
	// no default remapping is needed.)
	UnequippedFrac float64
	// DecodeEvery runs the §8 collision decoder every k-th epoch
	// (default 5; negative disables decoding).
	DecodeEvery int
	// DecodeBudget caps the collisions combined per decode run
	// (default 120).
	DecodeBudget int
	// Keep is the collector's per-reader report retention (default
	// 8192).
	Keep int
	// Partitions is the collector-tier process count (default 1, a
	// single collector). The tier is always an internal/cluster: readers
	// home onto partitions by consistent-hashing their intersection's
	// grid cell, uplinks route to the home partition, and queries merge
	// across partitions. Merged query answers are identical for any
	// partition count.
	Partitions int
	// Batch is how many telemetry reports a reader coalesces into one
	// frame before flushing its uplink (0 or 1 = one report per frame,
	// one frame per epoch). Results are identical for any value; only
	// framing and syscall counts change.
	Batch int
	// Chaos switches on the failure model: uplink fault injection,
	// reader churn, and clock drift (see chaos.go). The zero value is
	// the clean run — bit-identical to a build without this field.
	Chaos Chaos
	// Failover arms the partitioned tier's seed-reproducible crash
	// drill (see cluster.FailoverPlan); the zero value arms none. The
	// drill loses no reports, so it is no part of Chaos: a failover-only
	// run drains with zero loss and duplicate budgets.
	Failover cluster.FailoverPlan

	// measureDelay, when set, injects wall-clock latency into a
	// reader's epoch before it measures — the test/bench hook that
	// models duty-cycle dwell, backhaul jitter, or a deliberately slow
	// reader. Simulated time and therefore results are unaffected.
	measureDelay func(readerID uint32, epoch int) time.Duration
	// lockstep is the determinism oracle, set only by this package's
	// tests: the coordinator holds epoch e+1 back until every reader it
	// fed has measured and uplinked epoch e, so the slowest reader sets
	// the city's clock. A run with it and a run without must produce
	// identical Results.
	lockstep bool
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Duration == 0 {
		c.Duration = 30 * time.Second
	}
	if c.DecodeEvery == 0 {
		c.DecodeEvery = 5
	}
	if c.DecodeBudget == 0 {
		c.DecodeBudget = reader.DecodeBudget
	}
	if c.Keep == 0 {
		c.Keep = 8192
	}
	if c.Partitions == 0 {
		c.Partitions = 1
	}
	return c
}

func (c *Config) validate() error {
	if c.Readers < 1 {
		return fmt.Errorf("city: need at least one reader, got %d", c.Readers)
	}
	if c.Vehicles < 0 || c.Parked < 0 {
		return fmt.Errorf("city: negative fleet (%d vehicles, %d parked)", c.Vehicles, c.Parked)
	}
	if c.Duration < epochLen {
		return fmt.Errorf("city: duration %v is shorter than one %v epoch", c.Duration, epochLen)
	}
	if c.Duration%epochLen != 0 {
		return fmt.Errorf("city: duration %v is not a whole number of %v epochs", c.Duration, epochLen)
	}
	if !(c.UnequippedFrac >= 0 && c.UnequippedFrac <= 1) { // NaN included
		return fmt.Errorf("city: unequipped fraction %g outside [0,1]", c.UnequippedFrac)
	}
	if c.Batch < 0 {
		return fmt.Errorf("city: batch %d must be non-negative", c.Batch)
	}
	if c.DecodeBudget < 0 {
		return fmt.Errorf("city: decode budget %d must be non-negative", c.DecodeBudget)
	}
	if c.Keep < 0 {
		return fmt.Errorf("city: keep %d must be non-negative", c.Keep)
	}
	if c.Partitions < 0 {
		return fmt.Errorf("city: partitions %d must be non-negative", c.Partitions)
	}
	if c.Failover != (cluster.FailoverPlan{}) {
		if err := c.Failover.Validate(c.Partitions); err != nil {
			return fmt.Errorf("city: %w", err)
		}
	}
	return c.Chaos.validate()
}

// post is one deployed reader with its private RNG streams (what keep
// the concurrent measurement fan-out deterministic), decode log, and
// run statistics. Everything here is touched only by this reader's
// long-lived measurement goroutine.
type post struct {
	rd           *reader.Reader
	rng          *rand.Rand // Measure's queries
	decodeRNG    *rand.Rand // §8 decode queries alone: decoding never moves a count
	intersection int
	decoded      map[uint64]float64 // transponder id → CFO when decoded

	// clk, when drift is configured, is this reader's free-running
	// local clock: reports carry clk.Now(stamp) instead of the true
	// epoch stamp. syncRNG feeds its NTP exchanges — a stream separate
	// from the measurement RNG, so drift never perturbs results.
	clk     *clock.Clock
	syncRNG *rand.Rand

	// Run statistics, accumulated as reports are produced so they
	// cover the whole run even when the collector's retention window
	// (Config.Keep) is shorter than the run.
	reports    int
	carSeconds int
	peak       int
	tally      Score // this reader's epochs scored against the truth
}

// Sim is a constructed city ready to run.
type Sim struct {
	cfg   Config
	world *world.World // the truth; see the package comment for who may read it
	posts []*post
	gw    int // street-grid columns
}

// NewSim lays out the city: the world on a near-square grid of
// ceil(Readers/2) intersections, and readers on poles beside its streets.
func NewSim(cfg Config) (*Sim, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	k := (cfg.Readers + 1) / 2
	gw := int(math.Ceil(math.Sqrt(float64(k))))
	gh := (k + gw - 1) / gw
	s := &Sim{cfg: cfg, gw: gw, world: world.New(gw, gh, blockM, cfg.Vehicles, cfg.Parked, cfg.UnequippedFrac, cfg.Seed)}

	for j := 0; j < cfg.Readers; j++ {
		ix := j / 2
		col, row := ix%gw, ix/gw
		cx, cy := float64(col)*blockM, float64(row)*blockM
		rc := reader.Config{
			ID:         uint32(j + 1),
			PoleHeight: 3.8,
			TiltDeg:    60,
			NoiseSigma: noiseSigma,
		}
		if j%2 == 0 { // watches the horizontal street through (cx, cy)
			rc.PoleBase = geom.V(cx-5, cy+2, 0)
			rc.RoadDir = geom.V(1, 0, 0)
		} else { // watches the vertical street
			rc.PoleBase = geom.V(cx+2, cy-5, 0)
			rc.RoadDir = geom.V(0, 1, 0)
		}
		rd, err := reader.New(rc)
		if err != nil {
			return nil, fmt.Errorf("city: reader %d: %w", j+1, err)
		}
		s.posts = append(s.posts, &post{
			rd:           rd,
			rng:          newSeededRand(cfg.Seed ^ int64(j+1)*0x9E3779B9),
			decodeRNG:    newSeededRand(cfg.Seed ^ int64(j+1)*0x2545F4914F6CDD1D),
			intersection: ix,
			decoded:      make(map[uint64]float64),
			tally:        newScore(),
		})
	}
	initClocks(cfg, s.posts)
	return s, nil
}

// claimMask takes the epoch's devices (world.Devices) and assigns each
// device to at most one reader for the coming epoch — the §9 reader
// CSMA guarantee that overlapping readers never query the same scene
// simultaneously. Claiming in reader-id order keeps the partition
// deterministic; disjoint claims are also what make the concurrent
// measurement goroutines race-free (a device's position, envelope
// cache, and battery budget are only touched by its claiming reader).
//
// The claim is one linear scan: readers in id order, each over devs in
// their order (world.Devices: vehicles first, then parked cars), so a
// reader's claims come in that order too. Its O(readers × devices)
// per epoch is small beside what the same readers spend analyzing
// their captures.
//
// active is the churn mask: a reader marked inactive this epoch claims
// nothing, so its in-range devices fall to a later (overlapping) reader
// in id order or go unread — exactly what a departed parked-car RSU's
// zone looks like. A nil mask means every reader is on.
func (s *Sim) claimMask(devs []*transponder.Device, active []bool) [][]*transponder.Device {
	claims := make([][]*transponder.Device, len(s.posts))
	taken := make(map[*transponder.Device]bool)
	for i, p := range s.posts {
		if active != nil && !active[i] {
			continue
		}
		center := p.rd.Center()
		for _, d := range devs {
			if d.Pos.Dist(center) <= rangeM && !taken[d] {
				claims[i] = append(claims[i], d)
				taken[d] = true
			}
		}
	}
	return claims
}

// IntersectionStats summarizes one intersection's traffic over a run.
// The statistics are accumulated as its readers produce reports, so
// they cover every epoch of the run even when the collector's
// retention window (Config.Keep) is shorter than the run — Reports
// summed over all intersections always equals Result.TotalReports,
// while the store itself may retain fewer.
type IntersectionStats struct {
	Index      int
	X, Y       float64  // intersection center on the road plane
	Readers    []uint32 // reader ids deployed there
	Reports    int      // telemetry reports its readers delivered
	CarSeconds int      // per-epoch §5 counts summed over the run
	Peak       int      // largest single-epoch count
}

// DecodedCar is one transponder whose id some reader recovered via §8.
type DecodedCar struct {
	ID     uint64
	FreqHz float64 // CFO the decode was run at
}

// Result is a finished run: per-intersection traffic, the decoded-car
// set, and the live collector state for service queries (find-my-car,
// speed pairs, parking) on top.
type Result struct {
	Epochs          int
	TotalReports    int
	PerIntersection []IntersectionStats
	Decoded         []DecodedCar // sorted by id, deduplicated
	// ParkedSpots maps parking-spot index → occupant id, for spots
	// whose occupant the readers managed to decode.
	ParkedSpots map[int]uint64
	// Store is the one partition's store of a single-collector run
	// (Cluster.Partition(0).Store); nil when the tier has ≥ 2 partitions
	// and no single store holds the run. Poles maps reader ids to
	// road-plane positions (what a SpeedService needs).
	Store      *collector.Store
	Poles      map[uint32]geom.Vec2
	Start, End time.Time
	// Cluster is the run's collector tier — servers stopped,
	// per-partition stores still queryable.
	Cluster *cluster.Cluster
	// Uplinks is the per-reader delivery accounting of a chaos run —
	// client, wire, store, and churn vantage points reconciled. Nil for
	// a clean run.
	Uplinks []UplinkStats
	// Failover summarizes the partition kill of a run that armed one
	// (Config.Failover). Nil otherwise.
	Failover *FailoverStats
	// Speed is the run's §7 speed service over Directory, every pole
	// registered, limit speedLimit; Parking holds one session per
	// ParkedSpots entry, opened at Start. Both serve the HTTP API.
	Speed   *collector.SpeedService
	Parking *collector.ParkingService
	// Speeds is Speed's answer for each decoded car two readers
	// sighted, in Decoded order: its CFO within speedTolHz, sightings
	// from the whole run, the clock at End.
	Speeds []SpeedAnswer
	// Score is the run scored against the simulator's truth, reader by
	// reader as each report was produced.
	Score Score
}

// SpeedAnswer is the speed service's answer for one decoded car: the
// reader pair, the m/s between them, and the SPEEDING flag.
type SpeedAnswer struct {
	ID uint64 // the decoded car checked
	collector.Violation
	Speeding bool
}

// Directory returns the run's sighting query surface: the single store
// when one partition holds the whole run (no merge to pay for), the
// cluster's merged query plane otherwise. Services (SpeedService, the
// HTTP API) built on this work unchanged over one collector or many.
func (r *Result) Directory() collector.Directory {
	if r.Store != nil {
		return r.Store
	}
	return r.Cluster
}

// FailoverStats summarizes a run's armed partition kill: whether any
// reader crossed the cut, who was rehomed where, and the recovery
// counters. Everything here is a pure function of the seed — the cut
// is keyed to report sequence numbers, so two runs with the same
// configuration kill, reroute, and recover identically.
type FailoverStats struct {
	// Partition is the partition the plan targeted.
	Partition int
	// Happened reports whether some reader actually crossed the cut
	// (a short run can end before any uplink passes the plan's AtSeq).
	Happened bool
	// Rehomed lists the readers moved to their ring successor, by id.
	Rehomed []uint32
	// DeadSeqs maps each rehomed reader to the last sequence number the
	// dead partition owns — the split the drain charges its reports by.
	DeadSeqs map[uint32]uint32
	// Reconnects and Redelivered sum the rehomed readers' client-side
	// recovery work: redials performed and reports rewritten after the
	// cut. In a failover-only run (no injected faults) these count
	// exactly the failover's cost; with faults injected they include
	// injector-caused retries too.
	Reconnects  int
	Redelivered int
}

// epochJob is one epoch of work handed to a reader: the
// simulated timestamp, whether this is a §8 decode epoch, and the
// claimed devices snapshotted at claim time — frozen positions and
// battery, shared immutable envelopes — so the reader can measure
// epoch N while the coordinator's kinematics are already at N+k. truth
// rides along for post.score alone.
type epochJob struct {
	epoch  int
	stamp  time.Time
	decode bool
	devs   []*transponder.Device
	truth  truth
}

// Run executes the simulation: an in-process collector tier, one TCP
// uplink per reader, and every reader running its capture → decode →
// uplink loop in a goroutine of its own (see runPipelined). Run blocks
// until every reader's final report has landed in its partition's store
// (a per-reader sequence check, not a global count).
func (s *Sim) Run() (*Result, error) {
	epochs := int(s.cfg.Duration / epochLen)
	ids := make([]uint32, len(s.posts))
	for i, p := range s.posts {
		ids[i] = p.rd.ID
	}
	cr := newChaosRun(s.cfg, epochs, ids) // nil on the clean path

	cl, err := cluster.New(cluster.Config{
		Partitions: s.cfg.Partitions,
		Keep:       s.cfg.Keep,
		Logf:       func(string, ...any) {}, // keep harness output clean
	})
	if err != nil {
		return nil, fmt.Errorf("city: %w", err)
	}
	defer cl.Stop()
	for _, p := range s.posts {
		cl.Register(p.rd.ID, s.cellOf(p))
	}
	if s.cfg.Failover != (cluster.FailoverPlan{}) {
		if err := cl.SetFailover(s.cfg.Failover); err != nil {
			return nil, fmt.Errorf("city: %w", err)
		}
	}

	clients := make([]*collector.Client, len(s.posts))
	for i, p := range s.posts {
		c, err := cl.Dial(p.rd.ID, cr.wrapDial(p.rd.ID))
		if err != nil {
			return nil, fmt.Errorf("city: uplink %d: %w", i, err)
		}
		defer c.Close()
		clients[i] = c
	}

	if err := s.runPipelined(cr, clients, epochs); err != nil {
		return nil, err
	}
	// The uplinks are real TCP, so sends complete before the server has
	// necessarily read them; block until every reader's reports have
	// landed. The barriers track per-reader marks, not retained
	// history: a run longer than the store's keep window trims old
	// reports, but every report still has to land — and no reader's
	// surplus can mask another reader's missing uplink.
	if err := cl.Drain(s.accounts(cr, clients, epochs), drainTimeout(epochs, len(s.posts))); err != nil {
		return nil, fmt.Errorf("city: %w", err)
	}
	produced := 0
	for _, p := range s.posts {
		produced += p.reports
	}
	res, err := s.summarize(cl, produced, epochs)
	if err != nil {
		return nil, err
	}
	res.Failover = s.failoverStats(cl, clients)
	if cr != nil {
		res.Uplinks = cr.uplinkStats(s.posts, clients, cl, epochs)
	}
	return res, nil
}

// accounts is what each reader sent, for the tier's drain: the seqs of
// the epochs it was online for, the seqs the injector saw lost and
// duplicated, and the client's give-ups. A clean run (nil cr) has no
// loss and no duplicates, which makes the drain exactly "every report
// landed".
func (s *Sim) accounts(cr *chaosRun, clients []*collector.Client, epochs int) map[uint32]cluster.Account {
	out := make(map[uint32]cluster.Account, len(s.posts))
	for i, p := range s.posts {
		a := cluster.Account{Total: uint32(epochs), Dropped: uint32(clients[i].Stats().Dropped)}
		if cr != nil {
			a.Total = uint32(cr.sched.ActiveEpochs(p.rd.ID, epochs))
			a.Lost, a.Dup = cr.faulted(p.rd.ID)
		}
		out[p.rd.ID] = a
	}
	return out
}

// cellOf returns the grid-cell key a reader homes by: its
// intersection's column/row on the street grid. Both readers of an
// intersection share the key, so co-located readers share a home
// collector by construction.
func (s *Sim) cellOf(p *post) string {
	return fmt.Sprintf("cell-%d-%d", p.intersection%s.gw, p.intersection/s.gw)
}

// failoverStats reconciles the partition-kill summary after the drain;
// nil when the run armed no kill.
func (s *Sim) failoverStats(cl *cluster.Cluster, clients []*collector.Client) *FailoverStats {
	dead, happened, deadSeqs, armed := cl.Failover()
	if !armed {
		return nil
	}
	fs := &FailoverStats{Partition: dead, Happened: happened, DeadSeqs: deadSeqs}
	for i, p := range s.posts { // posts are in reader-id order
		if _, ok := deadSeqs[p.rd.ID]; !ok {
			continue
		}
		fs.Rehomed = append(fs.Rehomed, p.rd.ID)
		st := clients[i].Stats()
		fs.Reconnects += st.Reconnects
		fs.Redelivered += st.Redelivered
	}
	return fs
}

// drainTimeout is the end-of-run ingest deadline: a floor for
// tiny runs plus headroom that grows with the number of reports in
// flight, so a city-day at 64 readers is not failed by a constant
// sized for a smoke test.
func drainTimeout(epochs, readers int) time.Duration {
	return 10*time.Second + time.Duration(epochs)*time.Duration(readers)*200*time.Microsecond
}

// runPipelined is the run loop. The coordinator goroutine owns all
// global state — the world and the claim partition — and walks it
// epoch by epoch, handing each reader a snapshot of its claimed
// devices through a bounded work queue, up to lookahead epochs ahead of
// the slowest reader. Each reader is one goroutine — the §10 device:
// take a job, measure (capture → analyze → decode), uplink the report,
// take the next; flush what is still queued when the work runs out —
// and nothing ever waits for another reader. Determinism holds because
// every mutable thing is owned by exactly one loop: the coordinator
// mutates vehicles and real devices, each reader consumes its private
// RNG streams in epoch order against frozen snapshots and writes its
// uplink in that same order, and the store keys ingest by
// (ReaderID, Seq). The lockstep test hook makes the coordinator wait,
// after dispatching each epoch, until every reader it fed has uplinked
// that epoch's report — same loop, no lookahead.
func (s *Sim) runPipelined(cr *chaosRun, clients []*collector.Client, epochs int) error {
	n := len(s.posts)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	work := make([]chan epochJob, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	// uplinked carries one token per report a reader has finished with;
	// only the lockstep barrier drains it, so only lockstep readers fill
	// it (at most one token per reader is ever outstanding).
	uplinked := make(chan struct{}, n)
	// Under chaos, degraded ≠ dead: the client counted the loss, the
	// drain's budget absorbs it, and the reader keeps measuring (its
	// sends are accepted and dropped). A clean run drains with zero loss
	// budgets, which a dropped report would only hang until their
	// timeout — there every send error aborts the run.
	tolerated := func(err error) bool {
		return cr != nil && errors.Is(err, collector.ErrUplinkDegraded)
	}
	for i := range s.posts {
		work[i] = make(chan epochJob, lookahead)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, up := s.posts[i], clients[i]
			for job := range work[i] {
				rep, err := s.measureEpoch(p, job)
				if err == nil {
					err = s.uplink(p, up, rep)
				}
				if err != nil && !tolerated(err) {
					errs[i] = err
					cancel()
					return
				}
				if s.cfg.lockstep {
					uplinked <- struct{}{}
				}
			}
			if err := up.Flush(); err != nil && !tolerated(err) {
				errs[i] = fmt.Errorf("city: reader %d uplink flush: %w", p.rd.ID, err)
				cancel()
			}
		}(i)
	}

	var coordErr error
coordinate:
	for e := 0; e < epochs; e++ {
		s.world.Advance(epochLen)
		active := cr.activeMask(s.posts, e)
		claims := s.claimMask(s.world.Devices(), active)
		job := epochJob{epoch: e, stamp: baseTime.Add(time.Duration(e+1) * epochLen)}
		job.decode = s.cfg.DecodeEvery > 0 && e%s.cfg.DecodeEvery == 0
		fed := 0
		for i := range s.posts {
			if active != nil && !active[i] {
				continue // churned out: the reader simply gets no job
			}
			j := job
			j.truth = truthOf(s.posts[i], claims[i], job.decode)
			j.devs, coordErr = s.snapshot(s.posts[i], claims[i])
			if coordErr != nil {
				break coordinate
			}
			select {
			case work[i] <- j:
				fed++
			case <-ctx.Done():
				break coordinate
			}
		}
		if s.cfg.lockstep {
			// The barrier: kinematics stay at epoch e until every reader
			// fed above has measured and uplinked it.
			for ; fed > 0; fed-- {
				select {
				case <-uplinked:
				case <-ctx.Done():
					break coordinate
				}
			}
		}
	}
	for i := range work {
		close(work[i])
	}
	wg.Wait()
	return errors.Join(append(errs, coordErr)...)
}

// snapshot freezes one reader's claimed devices for a pipelined epoch:
// position and battery copied, modulated envelope shared (immutable
// once built — building it here, on the coordinator goroutine, keeps
// the lazy modulation write off the concurrent readers).
func (s *Sim) snapshot(p *post, devs []*transponder.Device) ([]*transponder.Device, error) {
	if len(devs) == 0 {
		return nil, nil
	}
	out := make([]*transponder.Device, len(devs))
	for i, d := range devs {
		cp, err := d.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("city: reader %d: %w", p.rd.ID, err)
		}
		out[i] = cp
	}
	return out, nil
}

// measureEpoch runs one reader's epoch (reader.Epoch: the §10 active
// window, the §5 count and, on decode epochs, the §8 decode) stamped
// with the reader's clock, and reads the decoded ids back off the
// report. Everything it touches — the post's reader, RNGs, statistics,
// and the epoch's device set — is private to the calling goroutine.
func (s *Sim) measureEpoch(p *post, job epochJob) (*telemetry.Report, error) {
	if s.cfg.measureDelay != nil {
		if d := s.cfg.measureDelay(p.rd.ID, job.epoch); d > 0 {
			time.Sleep(d)
		}
	}
	stamp := job.stamp
	if p.clk != nil {
		// A drifting reader stamps reports with its local clock — the
		// error the cross-reader speed service actually inherits (§7).
		// Periodic NTP resyncs slew it back to tens-of-ms accuracy;
		// both consume only this reader's private streams in its own
		// epoch order, so drift is independent of reader interleaving.
		if k := s.cfg.Chaos.ResyncEvery; k > 0 && job.epoch > 0 && job.epoch%k == 0 {
			clock.Sync(p.clk, job.stamp, p.syncRNG)
		}
		stamp = p.clk.Now(job.stamp)
	}
	budget := 0
	if job.decode {
		budget = s.cfg.DecodeBudget
	}
	rep, err := p.rd.Epoch(job.devs, stamp, budget, p.rng, p.decodeRNG)
	if err != nil {
		return nil, fmt.Errorf("city: reader %d: %w", p.rd.ID, err)
	}
	var decoded []uint64
	for _, sp := range rep.Spikes {
		if sp.DecodedID != 0 {
			p.decoded[sp.DecodedID] = sp.FreqHz
			decoded = append(decoded, sp.DecodedID)
		}
	}
	p.score(job, rep.Count, decoded)
	p.reports++
	p.carSeconds += rep.Count
	if rep.Count > p.peak {
		p.peak = rep.Count
	}
	return rep, nil
}

// uplink queues one report on a reader's client and flushes once Batch
// are pending: one frame per Batch epochs. Every batch size lands the
// same reports, so results are identical for any value.
func (s *Sim) uplink(p *post, up *collector.Client, rep *telemetry.Report) error {
	up.Queue(rep)
	if up.Pending() >= s.cfg.Batch {
		if err := up.Flush(); err != nil {
			return fmt.Errorf("city: reader %d uplink: %w", p.rd.ID, err)
		}
	}
	return nil
}

// summarize folds the collector state into per-intersection statistics,
// merges the per-reader decode logs and scores in a fixed order, builds
// the run's speed and parking services and scores their answers.
func (s *Sim) summarize(cl *cluster.Cluster, total, epochs int) (*Result, error) {
	res := &Result{
		Epochs:       epochs,
		TotalReports: total,
		ParkedSpots:  make(map[int]uint64),
		Cluster:      cl,
		Poles:        make(map[uint32]geom.Vec2, len(s.posts)),
		Start:        baseTime,
		End:          baseTime.Add(time.Duration(epochs) * epochLen),
		Score:        newScore(),
	}
	if cl.NumPartitions() == 1 {
		res.Store = cl.Partition(0).Store
	}
	res.Speed = collector.NewSpeedService(res.Directory(), speedLimit)
	stats := make([]IntersectionStats, (len(s.posts)+1)/2)
	for ix := range stats {
		col, row := ix%s.gw, ix/s.gw
		stats[ix] = IntersectionStats{Index: ix, X: float64(col) * blockM, Y: float64(row) * blockM}
	}
	for _, p := range s.posts {
		st := &stats[p.intersection]
		st.Readers = append(st.Readers, p.rd.ID)
		c := p.rd.Center()
		pole := geom.P(c.X, c.Y)
		res.Poles[p.rd.ID] = pole
		res.Speed.RegisterReader(p.rd.ID, pole)
		// Producer-side accumulation, not a store scan: history trimmed
		// by the keep window must not silently shrink the run summary
		// (the store still backs the service queries below).
		st.Reports += p.reports
		st.CarSeconds += p.carSeconds
		if p.peak > st.Peak {
			st.Peak = p.peak
		}
		res.Score.merge(p.tally)
	}
	res.PerIntersection = stats

	seen := make(map[uint64]bool)
	for _, p := range s.posts { // posts are in reader-id order
		ids := make([]uint64, 0, len(p.decoded))
		for id := range p.decoded {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for _, id := range ids {
			if !seen[id] {
				seen[id] = true
				res.Decoded = append(res.Decoded, DecodedCar{ID: id, FreqHz: p.decoded[id]})
			}
		}
	}
	sort.Slice(res.Decoded, func(a, b int) bool { return res.Decoded[a].ID < res.Decoded[b].ID })
	for _, d := range res.Decoded {
		v, over, err := res.Speed.Check(d.FreqHz, speedTolHz, res.End.Sub(res.Start), res.End)
		if err != nil {
			continue // sighted at fewer than two readers
		}
		res.Speeds = append(res.Speeds, SpeedAnswer{ID: d.ID, Violation: v, Speeding: over})
	}
	res.Score.Speed = s.scoreSpeeds(res.Speeds)

	// The truth leak ROADMAP item 5 removes: copied, not measured.
	res.Parking = collector.NewParkingService()
	parked := s.world.Parked()
	for spot, d := range parked {
		if !seen[d.ID()] {
			continue
		}
		res.ParkedSpots[spot] = d.ID()
		if err := res.Parking.Arrive(spot, d.ID(), res.Start); err != nil {
			return nil, fmt.Errorf("city: %w", err)
		}
	}
	res.Score.Parking = ParkingScore{Parked: len(parked), Answered: len(res.ParkedSpots)}
	return res, nil
}

// Run builds and executes a city in one call.
func Run(cfg Config) (*Result, error) {
	s, err := NewSim(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
