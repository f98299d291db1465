package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"caraoke/internal/collector"
	"caraoke/internal/telemetry"
)

// errPartitionKilled is the error a guarded uplink connection returns
// when a write crosses the failover cut: the frame was NOT forwarded,
// the reader has been rehomed to its ring successor, and the client's
// reconnect path will redeliver the frame there. It reports like a dead
// peer, not a timeout, so at-least-once clients take their redial path.
var errPartitionKilled = errors.New("cluster: partition killed (failover cut)")

// Config sizes a collector cluster. Zero fields take defaults.
type Config struct {
	// Partitions is the collector process count (≥ 1).
	Partitions int
	// Keep is each partition store's per-reader retention (the
	// collector default applies when zero).
	Keep int
	// Logf, if set, receives every partition server's connection-level
	// diagnostics.
	Logf func(format string, args ...any)
}

// FailoverPlan schedules a deterministic mid-run partition death: every
// uplink frame from a reader homed on Partition whose reports all carry
// Seq > AtSeq fails without being forwarded, the reader is rehomed to
// the cell's ring successor, and the client's at-least-once retry
// delivers the frame there. Keying the cut to sequence numbers instead
// of wall-clock is what makes a crash seed-reproducible: the doomed
// partition ends every run owning exactly the same per-reader seq
// prefix. The zero plan is no drill (Validate refuses it): a caller
// whose drill is optional arms only a plan that is not the zero value.
type FailoverPlan struct {
	// Partition is the index of the partition to kill.
	Partition int
	// AtSeq is the last sequence number the doomed partition may own;
	// frames whose reports all carry larger seqs are cut (≥ 1).
	AtSeq uint32
}

// Partition is one collector process of the tier: its store, its TCP
// ingest server, and the address readers homed on it uplink to.
type Partition struct {
	Index int
	Store *collector.Store

	srv  *collector.Server
	addr string
}

// Addr returns the partition's ingest address.
func (p *Partition) Addr() string { return p.addr }

// Cluster is a running multi-collector tier.
type Cluster struct {
	ring  *Ring
	parts []*Partition

	mu     sync.Mutex
	cells  map[uint32]string // reader id → grid-cell key
	origin map[uint32]int    // reader id → home at registration
	home   map[uint32]int    // reader id → current home (failover moves it)
	plan   *FailoverPlan
	killed bool // the planned kill has happened (some reader crossed the cut)
	// ownedOld[r] is the highest Seq the doomed partition was handed
	// from reader r before r crossed the cut — the exact split point
	// per-partition drain barriers and recovery assertions use.
	ownedOld map[uint32]uint32
}

// New starts a cluster: Partitions collector servers, each bound to its
// own loopback port. Stop shuts the servers down; the stores remain
// queryable after Stop (the query plane does not need live ingest).
func New(cfg Config) (*Cluster, error) {
	ring, err := NewRing(cfg.Partitions)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		ring:     ring,
		cells:    make(map[uint32]string),
		origin:   make(map[uint32]int),
		home:     make(map[uint32]int),
		ownedOld: make(map[uint32]uint32),
	}
	for i := 0; i < cfg.Partitions; i++ {
		store := collector.NewStore(cfg.Keep)
		srv := collector.NewServer(store)
		if cfg.Logf != nil {
			srv.Logf = cfg.Logf
		}
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			c.Stop()
			return nil, fmt.Errorf("cluster: partition %d: %w", i, err)
		}
		c.parts = append(c.parts, &Partition{Index: i, Store: store, srv: srv, addr: addr.String()})
	}
	return c, nil
}

// Stop shuts every partition server down and waits for their
// connections to drain. Stores stay readable.
func (c *Cluster) Stop() {
	for _, p := range c.parts {
		if p.srv != nil {
			p.srv.Stop()
		}
	}
}

// NumPartitions returns the partition count.
func (c *Cluster) NumPartitions() int { return len(c.parts) }

// Partition returns partition i.
func (c *Cluster) Partition(i int) *Partition { return c.parts[i] }

// Validate reports whether the plan can run on a tier of partitions
// collectors: the cut leaves the doomed partition at least seq 1, the
// partition exists, and some other partition survives to take its
// readers.
func (p FailoverPlan) Validate(partitions int) error {
	if p.AtSeq < 1 {
		return fmt.Errorf("cluster: failover of partition %d at seq %d; the cut must leave the partition at least seq 1", p.Partition, p.AtSeq)
	}
	if p.Partition < 0 || p.Partition >= partitions {
		return fmt.Errorf("cluster: failover partition %d outside [0,%d)", p.Partition, partitions)
	}
	if partitions < 2 {
		return fmt.Errorf("cluster: cannot fail over a %d-partition cluster (no successor)", partitions)
	}
	return nil
}

// SetFailover arms a failover plan. It must be set before the readers
// it affects start uplinking.
func (c *Cluster) SetFailover(plan FailoverPlan) error {
	if err := plan.Validate(len(c.parts)); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.plan = &plan
	return nil
}

// Register homes a reader: its grid cell is hashed onto the ring and
// the owning partition becomes the reader's home collector. Co-located
// readers (same cell) share a home by construction.
func (c *Cluster) Register(readerID uint32, cell string) {
	part := c.ring.Owner(cell)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cells[readerID] = cell
	c.origin[readerID] = part
	c.home[readerID] = part
}

// HomeOf returns the reader's current home partition index.
func (c *Cluster) HomeOf(readerID uint32) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.homeLocked(readerID)
}

func (c *Cluster) homeLocked(readerID uint32) int {
	part, ok := c.home[readerID]
	if !ok {
		panic(fmt.Sprintf("cluster: reader %d was never registered", readerID))
	}
	return part
}

// Dial opens a reader's uplink client. Every dial and redial resolves
// the reader's current home — that re-resolution is the failover
// mechanism: a rehomed reader's redial lands on the ring successor.
// wrap, if non-nil, wraps the TCP dial (a fault injector's WrapDial),
// and the failover cut guards what it returns, so the layering is
// client → cut → wrap → TCP: a cut frame is never seen by the
// injector, and an injector-killed frame retries against the same home
// until the cut is actually crossed.
func (c *Cluster) Dial(readerID uint32, wrap func(dial func() (net.Conn, error)) func() (net.Conn, error)) (*collector.Client, error) {
	dial := func() (net.Conn, error) {
		return net.DialTimeout("tcp", c.parts[c.HomeOf(readerID)].addr, 5*time.Second)
	}
	if wrap != nil {
		dial = wrap(dial)
	}
	return collector.DialFunc(func() (net.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		return c.guard(readerID, conn), nil
	})
}

// Failover reports the armed plan (armed is false without one): the
// doomed partition, whether some reader crossed the cut, and for each
// reader the cut rehomed, the last seq the dead partition owns from it.
func (c *Cluster) Failover() (dead int, happened bool, deadSeqs map[uint32]uint32, armed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.plan == nil {
		return 0, false, nil, false
	}
	deadSeqs = make(map[uint32]uint32)
	for id, h := range c.home {
		if h != c.origin[id] {
			deadSeqs[id] = c.ownedOld[id]
		}
	}
	return c.plan.Partition, c.killed, deadSeqs, true
}

// guard wraps a freshly dialed uplink connection with the failover cut
// when the reader is currently homed on a doomed partition; other
// connections pass through untouched.
func (c *Cluster) guard(readerID uint32, conn net.Conn) net.Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.plan == nil || c.homeLocked(readerID) != c.plan.Partition {
		return conn
	}
	return &cutConn{Conn: conn, c: c, readerID: readerID}
}

// cutConn enforces a failover plan on one reader's uplink to the
// doomed partition. Each Write carries exactly one telemetry frame
// (the injector relies on the same invariant); the frame's report
// sequence numbers decide its fate, so the cut point is a pure function
// of the report stream, independent of run mode or scheduling.
type cutConn struct {
	net.Conn
	c        *Cluster
	readerID uint32
}

func (w *cutConn) Write(b []byte) (int, error) {
	rs, err := telemetry.ReadBatch(bytes.NewReader(b))
	if err != nil {
		// Not a telemetry frame; no seq to key the cut on — forward.
		return w.Conn.Write(b)
	}
	minSeq, maxSeq := uint32(0), uint32(0)
	for _, r := range rs {
		if minSeq == 0 || r.Seq < minSeq {
			minSeq = r.Seq
		}
		if r.Seq > maxSeq {
			maxSeq = r.Seq
		}
	}
	if cut := w.c.admit(w.readerID, minSeq, maxSeq); cut {
		return 0, errPartitionKilled
	}
	return w.Conn.Write(b)
}

// admit decides one frame's fate under the plan: a frame whose reports
// all sit past AtSeq crosses the cut — the reader is rehomed and the
// frame rejected — while any earlier frame, or an empty one, is
// forwarded and recorded as owned by the doomed partition.
func (c *Cluster) admit(readerID uint32, minSeq, maxSeq uint32) (cut bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.plan == nil || c.homeLocked(readerID) != c.plan.Partition {
		// Invariant: a cutConn guards only a reader homed on the doomed
		// partition, and that home moves only when the reader's own
		// frame crosses the cut — after which its single-goroutine
		// client drops the conn and redials. A write on a stale conn
		// breaks that contract; forward it rather than cut twice.
		return false
	}
	if minSeq != 0 && minSeq > c.plan.AtSeq {
		c.killed = true
		dead := c.plan.Partition
		c.home[readerID] = c.ring.OwnerSkipping(c.cells[readerID], func(p int) bool { return p == dead })
		return true
	}
	if maxSeq > c.ownedOld[readerID] {
		c.ownedOld[readerID] = maxSeq
	}
	return false
}

// seqRange says: reader seqs [lo, hi] (inclusive) were routed to
// partition part.
type seqRange struct {
	part   int
	lo, hi uint32
}

// ownershipSplit returns how reader r's seqs 1..total split across
// partitions — one range for an un-failed-over reader, two (doomed
// prefix, successor suffix) for a rehomed one. It is the composition
// key that turns per-partition barriers into a cluster-wide one: each
// partition waits only for the seq range it actually owns.
func (c *Cluster) ownershipSplit(readerID uint32, total uint32) []seqRange {
	c.mu.Lock()
	defer c.mu.Unlock()
	home := c.homeLocked(readerID)
	orig := c.origin[readerID]
	if total == 0 {
		return nil
	}
	if home == orig {
		return []seqRange{{part: home, lo: 1, hi: total}}
	}
	old := min(c.ownedOld[readerID], total)
	var out []seqRange
	if old >= 1 {
		out = append(out, seqRange{part: orig, lo: 1, hi: old})
	}
	if old < total {
		out = append(out, seqRange{part: home, lo: old + 1, hi: total})
	}
	return out
}

// fanOut runs wait on every partition concurrently and joins their
// errors, each naming its partition: the one per-partition barrier
// both WaitHighWater and Drain compose over.
func (c *Cluster) fanOut(wait func(i int, st *collector.Store) error) error {
	errs := make([]error, len(c.parts))
	var wg sync.WaitGroup
	for i, p := range c.parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := wait(i, p.Store); err != nil {
				errs[i] = fmt.Errorf("cluster: partition %d: %w", i, err)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// WaitHighWater is the cluster-wide lossless drain barrier: every
// reader in want must reach its mark, split per partition by ownership
// (a rehomed reader's doomed prefix barriers on the doomed partition's
// store — those frames were forwarded before the cut and must land —
// and its suffix on the successor). Partitions drain concurrently.
func (c *Cluster) WaitHighWater(want map[uint32]uint32, timeout time.Duration) error {
	perPart := make([]map[uint32]uint32, len(c.parts))
	for id, seq := range want {
		for _, r := range c.ownershipSplit(id, seq) {
			if perPart[r.part] == nil {
				perPart[r.part] = make(map[uint32]uint32)
			}
			perPart[r.part][id] = r.hi
		}
	}
	return c.fanOut(func(i int, st *collector.Store) error {
		if len(perPart[i]) == 0 {
			return nil
		}
		return st.WaitHighWater(perPart[i], timeout)
	})
}

// Account is one reader's uplink ledger, as Drain takes it: the reader
// sent seqs 1..Total; Lost are the seqs inside frames the wire dropped
// (never arrived), Dup one entry per extra copy of a seq inside a frame
// that arrived and was then resent, and the client gave up on its last
// Dropped seqs (degradation is permanent, and Close abandons only
// queued reports, so its give-ups are the tail of its seq space).
type Account struct {
	Total   uint32
	Lost    []uint32
	Dup     []uint32
	Dropped uint32
}

// Drain blocks until every account's reports have landed in the tier,
// and every wire copy with them. Each account splits by ownership, and
// each partition waits, concurrently with the others, only for the
// ranges it owns: distinct reports up to the loss charged to it, then
// every copy (duplicates included), so the dedupe counters are settled
// and reproducible before anyone reads them. Every budget entry is
// charged by sequence number, so the loss charged to a partition is
// exactly the loss that would have landed there; an account with no
// loss or duplicates makes the barrier exactly "every report landed".
func (c *Cluster) Drain(sent map[uint32]Account, timeout time.Duration) error {
	n := len(c.parts)
	want, budget, copies := make([]map[uint32]uint32, n), make([]map[uint32]int, n), make([]map[uint32]int, n)
	for i := range want {
		want[i], budget[i], copies[i] = make(map[uint32]uint32), make(map[uint32]int), make(map[uint32]int)
	}
	for id, a := range sent {
		deliveredHi := a.Total - min(a.Dropped, a.Total)
		for _, rg := range c.ownershipSplit(id, a.Total) {
			distinct := int(rg.hi - rg.lo + 1)
			lostIn, dupIn := countInRange(a.Lost, rg.lo, rg.hi), countInRange(a.Dup, rg.lo, rg.hi)
			droppedIn := 0
			if rg.hi > deliveredHi {
				droppedIn = int(rg.hi - max(rg.lo, deliveredHi+1) + 1)
			}
			want[rg.part][id] = uint32(distinct)
			budget[rg.part][id] = lostIn + droppedIn
			copies[rg.part][id] = distinct - droppedIn - lostIn + dupIn
		}
	}
	return c.fanOut(func(i int, st *collector.Store) error {
		if len(want[i]) == 0 {
			return nil
		}
		if err := st.WaitDelivered(want[i], budget[i], timeout); err != nil {
			return err
		}
		return st.WaitCopies(copies[i], timeout)
	})
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

// SeqsReceived sums the distinct reports landed from a reader across
// every partition — dead ones included, since reports delivered before
// a crash still arrived. No seq lands on two partitions (the cut is a
// clean prefix split), so the sum is a distinct count.
func (c *Cluster) SeqsReceived(readerID uint32) int {
	n := 0
	for _, p := range c.parts {
		n += p.Store.SeqsReceived(readerID)
	}
	return n
}

// Deduped sums the duplicate reports absorbed from a reader across
// every partition.
func (c *Cluster) Deduped(readerID uint32) int {
	n := 0
	for _, p := range c.parts {
		n += p.Store.Deduped(readerID)
	}
	return n
}

// ReadersOn returns how many registered readers currently call
// partition i home.
func (c *Cluster) ReadersOn(i int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, h := range c.home {
		if h == i {
			n++
		}
	}
	return n
}

// livePartitions returns the partitions in the query plane: all of
// them, minus a realized kill (a crashed collector's in-memory state is
// gone; the paper's city answers from the survivors).
func (c *Cluster) livePartitions() []*Partition {
	c.mu.Lock()
	killed, dead := c.killed, -1
	if killed {
		dead = c.plan.Partition
	}
	c.mu.Unlock()
	if !killed {
		return c.parts
	}
	live := make([]*Partition, 0, len(c.parts)-1)
	for _, p := range c.parts {
		if p.Index != dead {
			live = append(live, p)
		}
	}
	return live
}

// Cluster implements collector.Directory by fanning queries out to the
// live partitions and merging deterministically.
var _ collector.Directory = (*Cluster)(nil)

// FindCar locates the latest sighting of a transponder across the
// cluster. Each partition answers from its own index; the per-partition
// maxima fold under collector.SightingWins, which equals the answer one
// global store would give (the same rule orders its internal index).
func (c *Cluster) FindCar(id uint64) (collector.CarSighting, bool) {
	var best collector.CarSighting
	found := false
	for _, p := range c.livePartitions() {
		if sgt, ok := p.Store.FindCar(id); ok {
			if !found || collector.SightingWins(sgt, best) {
				best, found = sgt, true
			}
		}
	}
	return best, found
}

// DecodedIDAt returns the decoded id whose globally-latest sighting is
// nearest freq, within tol (collector.NearestID, the store's rule). The
// per-id latest must be resolved across partitions BEFORE the rule runs
// — a partition-local latest can sit inside tol while the car's true
// latest sighting (on another partition) does not — so each partition
// contributes its whole index snapshot and the rule runs on the merged
// maxima.
func (c *Cluster) DecodedIDAt(freq, tol float64) uint64 {
	merged := make(map[uint64]collector.CarSighting)
	for _, p := range c.livePartitions() {
		for id, sgt := range p.Store.SightingsSnapshot() {
			if prev, ok := merged[id]; !ok || collector.SightingWins(sgt, prev) {
				merged[id] = sgt
			}
		}
	}
	return collector.NearestID(merged, freq, tol)
}

// SightingsByCFO merges the per-reader latest-spike maps of every live
// partition. A reader's history lives on exactly one live partition
// (rehomed readers split across dead + successor, and the dead side is
// out of the query plane), so the union is disjoint; SightingWins
// handles any residual overlap deterministically.
func (c *Cluster) SightingsByCFO(freq, tol float64) map[uint32]collector.CarSighting {
	out := make(map[uint32]collector.CarSighting)
	for _, p := range c.livePartitions() {
		for readerID, sgt := range p.Store.SightingsByCFO(freq, tol) {
			if prev, ok := out[readerID]; !ok || collector.SightingWins(sgt, prev) {
				out[readerID] = sgt
			}
		}
	}
	return out
}
