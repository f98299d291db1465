// Package city is the city-scale simulation harness the paper's §1 and
// §4 motivate: not one reader at one intersection, but a seeded grid of
// intersections whose pole-mounted readers run concurrently, each
// synthesizing its own collision captures from the vehicles inside its
// interrogation zone and streaming telemetry reports over real TCP
// into the collector tier (internal/cluster, one partition by default).
// It is the scaffold the production-scale load work drives: each reader
// runs its measurement pipeline (capture synthesis → FFT → spike
// extraction → §5 count → optional §8 collision decode → uplink) in
// one goroutine of its own: it measures an epoch, ships the report, and
// takes the next, and no reader ever waits on another — the paper's
// §10/§12.5 deployment model, where every reader duty-cycles
// independently and ships results over a cheap backhaul. A coordinator
// goroutine owns the shared world (vehicle kinematics, the §9 claim
// partition) and hands each reader per-epoch device snapshots through a
// bounded queue; the collector ingests the resulting out-of-order
// batches keyed by (ReaderID, Seq).
//
// The harness is deterministic: all randomness flows from Config.Seed
// through per-subsystem RNG streams (city construction; per reader,
// counting and §8 decoding), each reader consumes its streams in epoch
// order against frozen snapshots, and every cross-goroutine merge
// happens in a fixed order — two runs with the same configuration
// produce identical per-intersection counts and identical decoded-id
// sets however the scheduler interleaves the readers (the tests prove it
// against a per-epoch barrier), which is what makes the harness usable
// as a regression scenario and not just a demo.
package city

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

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
	// margin is how far (meters) each street extends beyond its
	// outermost intersection before wrapping; vehicles leaving one end
	// re-enter the other, keeping the fleet size constant for the whole
	// run.
	margin = 60
	// tick is the vehicle-kinematics step.
	tick = 100 * time.Millisecond
	// epochLen is the measurement cadence: every epoch each reader runs
	// one §10 active window.
	epochLen = time.Second
	// windowQueries is the §10 active window: ten queries in 10 ms. The
	// window detector's gates are calibrated for it — fewer queries
	// count cars on an empty road (reader's TestEmptyRoadCountsZero).
	windowQueries = 10
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
		c.DecodeBudget = 120
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
	if c.UnequippedFrac < 0 || c.UnequippedFrac > 1 {
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
	if c.Chaos.KillAtSeq > 0 && c.Partitions < 2 {
		return fmt.Errorf("city: killing a partition needs a partitioned run (partitions %d)", c.Partitions)
	}
	if c.Chaos.KillAtSeq > 0 && c.Chaos.KillPartition >= c.Partitions {
		return fmt.Errorf("city: kill partition %d outside [0,%d)", c.Chaos.KillPartition, c.Partitions)
	}
	return c.Chaos.validate()
}

// street is one road of the grid. Vehicles wrap at length; world
// coordinate along the street is s − margin.
type street struct {
	horizontal bool
	fixed      float64 // y (horizontal) or x (vertical)
	length     float64
}

// vehicle is one circulating car.
type vehicle struct {
	dev    *transponder.Device // nil when unequipped
	street int
	s      float64 // position along the street, wraps at length
	speed  float64 // m/s, constant per vehicle
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
}

// Sim is a constructed city ready to run.
type Sim struct {
	cfg      Config
	streets  []street
	vehicles []*vehicle
	parked   []*transponder.Device
	posts    []*post
	poles    map[uint32]geom.Vec2
	gw, gh   int // street-grid columns and rows
	k        int // intersections with readers
}

// NewSim lays out the city: ceil(Readers/2) intersections on a near-
// square grid of streets, readers on poles beside their streets,
// vehicles scattered over the grid, and parked cars curbside at
// intersection 0.
func NewSim(cfg Config) (*Sim, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	k := (cfg.Readers + 1) / 2
	gw := int(math.Ceil(math.Sqrt(float64(k))))
	gh := (k + gw - 1) / gw
	s := &Sim{cfg: cfg, gw: gw, gh: gh, k: k, poles: make(map[uint32]geom.Vec2)}

	hLen := float64(gw-1)*blockM + 2*margin
	vLen := float64(gh-1)*blockM + 2*margin
	for row := 0; row < gh; row++ {
		s.streets = append(s.streets, street{horizontal: true, fixed: float64(row) * blockM, length: hLen})
	}
	for col := 0; col < gw; col++ {
		s.streets = append(s.streets, street{horizontal: false, fixed: float64(col) * blockM, length: vLen})
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	pop := transponder.DefaultPopulationParams()
	var serial uint64 // low bits of the next tag serial, counting from 1
	for v := 0; v < cfg.Vehicles; v++ {
		veh := &vehicle{
			street: rng.Intn(len(s.streets)),
			speed:  8 + 6*rng.Float64(), // 8–14 m/s urban free flow
		}
		veh.s = rng.Float64() * s.streets[veh.street].length
		if rng.Float64() >= cfg.UnequippedFrac {
			serial++
			veh.dev = transponder.NewRandomDevice(pop, transponder.DenseSerial(rng, serial), geom.Vec3{}, rng)
		}
		s.vehicles = append(s.vehicles, veh)
	}
	for i := 0; i < cfg.Parked; i++ {
		// Curbside rows of five, 6 m pitch, just inside reader 1's zone.
		pos := geom.V(-22+6*float64(i%5), 8+3.5*float64(i/5), 0)
		serial++
		s.parked = append(s.parked, transponder.NewRandomDevice(pop, transponder.DenseSerial(rng, serial), pos, rng))
	}

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
		})
		c := rd.Center()
		s.poles[rc.ID] = geom.P(c.X, c.Y)
	}
	initClocks(cfg, s.posts)
	return s, nil
}

// step advances vehicle kinematics by dt.
func (s *Sim) step(dt time.Duration) {
	sec := dt.Seconds()
	for _, v := range s.vehicles {
		v.s += v.speed * sec
		if l := s.streets[v.street].length; v.s >= l {
			// A single subtraction only unwinds one lap; a large step
			// (or a short street) can overrun by several, leaving s out
			// of range and vehiclePos off the map. Mod is exact for the
			// common one-lap case (bit-identical to the subtraction)
			// and correct for any step size.
			v.s = math.Mod(v.s, l)
		}
	}
}

// vehiclePos maps a vehicle's 1-D street position to the road plane
// (right-hand lane, 2 m from the centerline).
func (s *Sim) vehiclePos(v *vehicle) geom.Vec3 {
	st := s.streets[v.street]
	w := v.s - margin
	if st.horizontal {
		return geom.V(w, st.fixed-2, 0)
	}
	return geom.V(st.fixed+2, w, 0)
}

// claimMask refreshes transponder positions and assigns each equipped
// device to at most one reader for the coming epoch — the §9 reader
// CSMA guarantee that overlapping readers never query the same scene
// simultaneously. Claiming in reader-id order keeps the partition
// deterministic; disjoint claims are also what make the concurrent
// measurement goroutines race-free (a device's position, envelope
// cache, and battery budget are only touched by its claiming reader).
//
// The candidate set per reader comes from a uniform-grid spatial index
// (cell size = interrogation range) rebuilt each epoch, so the claim
// step costs O(vehicles + readers × in-range density) instead of
// O(readers × vehicles). Candidates are visited in fleet order —
// vehicles first, then parked cars — which is exactly the linear
// scan's order, so the partition is identical (the linear scan lives
// on in grid_test.go as the equality oracle).
//
// active is the churn mask: a reader marked inactive this epoch claims
// nothing, so its in-range devices fall to a later (overlapping) reader
// in id order or go unread — exactly what a departed parked-car RSU's
// zone looks like. A nil mask means every reader is on.
func (s *Sim) claimMask(active []bool) [][]*transponder.Device {
	idx := newClaimIndex(rangeM, s.activeDevices())
	claims := make([][]*transponder.Device, len(s.posts))
	taken := make(map[*transponder.Device]bool)
	for i, p := range s.posts {
		if active != nil && !active[i] {
			continue
		}
		for _, d := range idx.within(p.rd.Center(), rangeM) {
			if !taken[d] {
				claims[i] = append(claims[i], d)
				taken[d] = true
			}
		}
	}
	return claims
}

// activeDevices refreshes vehicle transponder positions and returns
// every claimable device in claim-priority order: equipped vehicles in
// fleet order, then parked cars in spot order.
func (s *Sim) activeDevices() []*transponder.Device {
	devs := make([]*transponder.Device, 0, len(s.vehicles)+len(s.parked))
	for _, v := range s.vehicles {
		if v.dev != nil {
			v.dev.Pos = s.vehiclePos(v)
			devs = append(devs, v.dev)
		}
	}
	devs = append(devs, s.parked...)
	return devs
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
	// (Chaos.KillAtSeq > 0). Nil otherwise.
	Failover *FailoverStats
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
	// (a short run can end before any uplink passes KillAtSeq).
	Happened bool
	// Rehomed lists the readers moved to their ring successor, by id.
	Rehomed []uint32
	// DeadSeqs maps each rehomed reader to the last sequence number the
	// dead partition owns — the recovery split per-partition drain
	// barriers composed over.
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
// epoch N while the coordinator's kinematics are already at N+k.
type epochJob struct {
	epoch  int
	stamp  time.Time
	decode bool
	devs   []*transponder.Device
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
	if s.cfg.Chaos.KillAtSeq > 0 {
		plan := cluster.FailoverPlan{Partition: s.cfg.Chaos.KillPartition, AtSeq: uint32(s.cfg.Chaos.KillAtSeq)}
		if err := cl.SetFailover(plan); err != nil {
			return nil, fmt.Errorf("city: %w", err)
		}
	}

	clients := make([]*collector.Client, len(s.posts))
	for i, p := range s.posts {
		c, err := s.dialUplink(cr, cl, p)
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
	if err := s.drain(cr, cl, clients, epochs); err != nil {
		return nil, err
	}
	produced := 0
	for _, p := range s.posts {
		produced += p.reports
	}
	res := s.summarize(cl, produced, epochs)
	res.Failover = s.failoverStats(cl, cr, clients, epochs)
	if cr != nil {
		res.Uplinks = cr.uplinkStats(s.posts, clients, cl, epochs)
	}
	return res, nil
}

// drain blocks until every uplinked report has landed in the collector
// tier, and every wire copy with it. Each reader's expected seq set (the
// epochs it was online for) splits by partition ownership
// (cluster.OwnershipSplit: a rehomed reader's pre-cut prefix barriers on
// the dead partition's store, its suffix on the successor), and each
// partition waits, concurrently with the others, only for the seq ranges
// it owns: distinct reports up to the accounted loss, then every copy
// (duplicates included) so the dedupe counters are settled and
// reproducible before anyone reads them. With one partition the split is
// the identity.
//
// Every budget entry localizes by sequence number: the injector event
// log records which seqs each dropped or killed frame carried, a
// degraded client's give-ups are the contiguous tail of its seq space
// (degradation is permanent and Close abandons only queued reports), and
// a failover cut is a prefix split — so loss attributed to a partition
// is exactly the loss that would have landed there. A clean run (nil cr)
// has zero loss and duplicate budgets, which makes the barrier exactly
// "every report landed".
func (s *Sim) drain(cr *chaosRun, cl *cluster.Cluster, clients []*collector.Client, epochs int) error {
	nparts := cl.NumPartitions()
	want := make([]map[uint32]uint32, nparts)
	budget := make([]map[uint32]int, nparts)
	copies := make([]map[uint32]int, nparts)
	for i := range want {
		want[i] = make(map[uint32]uint32)
		budget[i] = make(map[uint32]int)
		copies[i] = make(map[uint32]int)
	}
	for i, p := range s.posts {
		id := p.rd.ID
		total, lost, dup := uint32(epochs), []uint32(nil), []uint32(nil)
		if cr != nil {
			total = uint32(cr.sched.ActiveEpochs(id, epochs))
			lost, dup = cr.faulted(id)
		}
		if total == 0 {
			continue
		}
		deliveredHi := uint32(0)
		if dropped := uint32(clients[i].Stats().Dropped); dropped < total {
			deliveredHi = total - dropped
		}
		for _, rg := range cl.OwnershipSplit(id, total) {
			distinct := int(rg.Hi - rg.Lo + 1)
			lostIn := countInRange(lost, rg.Lo, rg.Hi)
			dupIn := countInRange(dup, rg.Lo, rg.Hi)
			droppedIn := 0
			if rg.Hi > deliveredHi {
				droppedIn = int(rg.Hi - max(rg.Lo, deliveredHi+1) + 1)
			}
			want[rg.Part][id] = uint32(distinct)
			budget[rg.Part][id] = lostIn + droppedIn
			copies[rg.Part][id] = (distinct - droppedIn) - lostIn + dupIn
		}
	}

	timeout := drainTimeout(epochs, len(s.posts))
	errs := make([]error, nparts)
	var wg sync.WaitGroup
	for i := 0; i < nparts; i++ {
		if len(want[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := cl.Partition(i).Store
			if err := st.WaitDelivered(want[i], budget[i], timeout); err != nil {
				errs[i] = fmt.Errorf("city: partition %d: %w", i, err)
				return
			}
			if err := st.WaitCopies(copies[i], timeout); err != nil {
				errs[i] = fmt.Errorf("city: partition %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// countInRange counts the seqs in [lo, hi] (inclusive, duplicates
// counted — a frame killed twice is two extra copies).
func countInRange(seqs []uint32, lo, hi uint32) int {
	n := 0
	for _, s := range seqs {
		if s >= lo && s <= hi {
			n++
		}
	}
	return n
}

// cellOf returns the grid-cell key a reader homes by: its
// intersection's column/row on the street grid. Both readers of an
// intersection share the key, so co-located readers share a home
// collector by construction.
func (s *Sim) cellOf(p *post) string {
	return fmt.Sprintf("cell-%d-%d", p.intersection%s.gw, p.intersection/s.gw)
}

// dialUplink opens one reader's uplink against the collector tier. The
// dial resolves the reader's current home on every (re)connect — that
// re-resolution is the failover mechanism: a rehomed reader's redial
// lands on the ring successor. Layering is client → failover guard →
// fault injector (chaos runs only) → TCP, so a cut frame is never
// charged to the injector's loss accounting and an injector-killed
// frame retries against the same home until the cut is actually
// crossed.
func (s *Sim) dialUplink(cr *chaosRun, cl *cluster.Cluster, p *post) (*collector.Client, error) {
	id := p.rd.ID
	dial := func() (net.Conn, error) {
		return net.DialTimeout("tcp", cl.AddrFor(id), 5*time.Second)
	}
	if cr != nil {
		dial = cr.inj.WrapDial(fmt.Sprintf("reader-%d", id), dial)
	}
	return collector.DialFunc(func() (net.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		return cl.GuardConn(id, conn), nil
	})
}

// failoverStats reconciles the partition-kill summary after the drain;
// nil when the run armed no kill.
func (s *Sim) failoverStats(cl *cluster.Cluster, cr *chaosRun, clients []*collector.Client, epochs int) *FailoverStats {
	plan, ok := cl.Plan()
	if !ok {
		return nil
	}
	fs := &FailoverStats{Partition: plan.Partition, DeadSeqs: make(map[uint32]uint32)}
	_, fs.Happened = cl.KilledPartition()
	fs.Rehomed = cl.Rehomed()
	rehomed := make(map[uint32]bool, len(fs.Rehomed))
	for _, id := range fs.Rehomed {
		rehomed[id] = true
	}
	for i, p := range s.posts {
		id := p.rd.ID
		if !rehomed[id] {
			continue
		}
		total := uint32(epochs)
		if cr != nil {
			total = uint32(cr.sched.ActiveEpochs(id, epochs))
		}
		if split := cl.OwnershipSplit(id, total); len(split) == 2 {
			fs.DeadSeqs[id] = split[0].Hi
		}
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
// global state — vehicle kinematics and the claim partition — and walks
// it epoch by epoch, handing each reader a snapshot of its claimed
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
	now := time.Duration(0)
coordinate:
	for e := 0; e < epochs; e++ {
		for t := 0; t < int(epochLen/tick); t++ {
			s.step(tick)
		}
		now += epochLen
		active := cr.activeMask(s.posts, e)
		claims := s.claimMask(active)
		job := epochJob{epoch: e, stamp: baseTime.Add(now), decode: s.decodeAt(e)}
		fed := 0
		for i := range s.posts {
			if active != nil && !active[i] {
				continue // churned out: the reader simply gets no job
			}
			j := job
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

// decodeAt reports whether epoch e runs the §8 collision decoder.
func (s *Sim) decodeAt(e int) bool {
	return s.cfg.DecodeEvery > 0 && e%s.cfg.DecodeEvery == 0
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

// measureEpoch runs one reader's epoch: a §10 active window (ten
// back-to-back queries, multi-query analysis, §5 count) and optionally
// a §8 decode pass over the single-occupancy spikes. Everything it
// touches — the post's reader, RNGs, statistics, and the epoch's device
// set — is private to the calling goroutine.
func (s *Sim) measureEpoch(p *post, job epochJob) (*telemetry.Report, error) {
	if s.cfg.measureDelay != nil {
		if d := s.cfg.measureDelay(p.rd.ID, job.epoch); d > 0 {
			time.Sleep(d)
		}
	}
	res, err := p.rd.Measure(job.devs, windowQueries, p.rng)
	if err != nil {
		return nil, fmt.Errorf("city: reader %d: %w", p.rd.ID, err)
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
	rep := p.rd.Report(res, stamp)
	if job.decode && len(job.devs) > 0 {
		var freqs []float64
		for _, sp := range res.Spikes {
			if !sp.Multiple { // same-bin pairs don't combine coherently
				freqs = append(freqs, sp.Freq)
			}
		}
		out, err := p.rd.DecodeIDs(job.devs, freqs, s.cfg.DecodeBudget, p.decodeRNG)
		if err != nil {
			return nil, fmt.Errorf("city: reader %d decode: %w", p.rd.ID, err)
		}
		for i := range rep.Spikes {
			if dr, ok := out[rep.Spikes[i].FreqHz]; ok {
				rep.Spikes[i].DecodedID = dr.Frame.ID()
				p.decoded[dr.Frame.ID()] = rep.Spikes[i].FreqHz
			}
		}
	}
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

// summarize folds the collector state into per-intersection statistics
// and merges the per-reader decode logs in a fixed order.
func (s *Sim) summarize(cl *cluster.Cluster, total, epochs int) *Result {
	res := &Result{
		Epochs:       epochs,
		TotalReports: total,
		ParkedSpots:  make(map[int]uint64),
		Cluster:      cl,
		Poles:        s.poles,
		Start:        baseTime,
		End:          baseTime.Add(time.Duration(epochs) * epochLen),
	}
	if cl.NumPartitions() == 1 {
		res.Store = cl.Partition(0).Store
	}
	stats := make([]IntersectionStats, s.k)
	for ix := range stats {
		col, row := ix%s.gw, ix/s.gw
		stats[ix] = IntersectionStats{Index: ix, X: float64(col) * blockM, Y: float64(row) * blockM}
	}
	for _, p := range s.posts {
		st := &stats[p.intersection]
		st.Readers = append(st.Readers, p.rd.ID)
		// Producer-side accumulation, not a store scan: history trimmed
		// by the keep window must not silently shrink the run summary
		// (the store still backs the service queries below).
		st.Reports += p.reports
		st.CarSeconds += p.carSeconds
		if p.peak > st.Peak {
			st.Peak = p.peak
		}
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
	for spot, d := range s.parked {
		if seen[d.ID()] {
			res.ParkedSpots[spot] = d.ID()
		}
	}
	return res
}

// Run builds and executes a city in one call.
func Run(cfg Config) (*Result, error) {
	s, err := NewSim(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
