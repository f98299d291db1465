package collector

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"caraoke/internal/telemetry"
)

// DefaultShards is the shard count NewStore uses. Reader ids are dense
// and sequential in every deployment shape this repo models, so modulo
// sharding spreads them evenly.
const DefaultShards = 8

// storeShard holds the retained history for the reader ids that hash to
// it, behind its own lock — writers on different shards never contend.
type storeShard struct {
	mu      sync.RWMutex
	history map[uint32][]*telemetry.Report
}

// Store keeps the most recent reports per reader, sharded by reader id
// so concurrent connections contend only when they land on the same
// shard. A secondary index maps decoded transponder ids to their latest
// sighting, so find-my-car is a map lookup instead of a scan over every
// reader's whole history.
//
// Determinism contract: shard count never affects results. Every query
// either touches a single reader (one shard) or folds shards through a
// sort (Readers) or a per-reader keyed map (SightingsByCFO), so the
// merge order is fixed regardless of P.
type Store struct {
	shards []storeShard
	keep   int

	// ingestMu guards the run-barrier state: the per-reader sequence
	// high-water marks, the (ReaderID, Seq) dedupe sets and arrival
	// counters, and the condition the Wait* barriers sleep on. Kept apart
	// from the shard locks so a waiter never blocks writers on
	// unrelated shards.
	ingestMu sync.Mutex
	ingestCv *sync.Cond
	// high[reader] is the largest Report.Seq ingested from that reader —
	// the per-reader completion marks WaitHighWater checks, robust to
	// out-of-order arrival across readers because each reader's uplink
	// stamps its own monotone sequence.
	high    map[uint32]uint32
	waiters int
	// seen[reader] is the set of sequence numbers ever ingested from
	// that reader — the dedupe key that makes at-least-once redelivery
	// idempotent. Seq 0 marks pre-sequencing senders and bypasses
	// dedupe (every such report is accepted).
	seen map[uint32]map[uint32]struct{}
	// recv[reader] counts distinct reports accepted; copies[reader]
	// counts every arrival including duplicates; deduped[reader] is
	// their difference — the duplicates absorbed. recv advances only
	// after the report is visible in its shard, so a barrier that
	// returns guarantees the data is queryable.
	recv    map[uint32]int
	copies  map[uint32]int
	deduped map[uint32]int

	// idMu guards the transponder-id → latest-sighting index. Unlike
	// retained history, the index survives retention trims: a parked
	// car's last sighting stays queryable however much traffic has
	// flowed since (§4's find-my-car wants exactly that).
	idMu sync.RWMutex
	byID map[uint64]CarSighting
}

// NewStore creates a store retaining up to keep reports per reader,
// with DefaultShards shards.
func NewStore(keep int) *Store {
	return NewShardedStore(keep, DefaultShards)
}

// NewShardedStore creates a store with an explicit shard count (≤ 0
// falls back to DefaultShards).
func NewShardedStore(keep, shards int) *Store {
	if keep <= 0 {
		keep = 1024
	}
	if shards <= 0 {
		shards = DefaultShards
	}
	s := &Store{
		shards:  make([]storeShard, shards),
		keep:    keep,
		high:    make(map[uint32]uint32),
		byID:    make(map[uint64]CarSighting),
		seen:    make(map[uint32]map[uint32]struct{}),
		recv:    make(map[uint32]int),
		copies:  make(map[uint32]int),
		deduped: make(map[uint32]int),
	}
	for i := range s.shards {
		s.shards[i].history = make(map[uint32][]*telemetry.Report)
	}
	s.ingestCv = sync.NewCond(&s.ingestMu)
	return s
}

func (s *Store) shardFor(readerID uint32) *storeShard {
	return &s.shards[int(readerID)%len(s.shards)]
}

// Add ingests one report.
func (s *Store) Add(r *telemetry.Report) {
	s.ingest([]*telemetry.Report{r})
}

// AddBatch ingests a batch, advancing the ingest barrier once. Batches
// from different readers may arrive in any interleaving — each report
// is keyed by (ReaderID, Seq), so per-reader history order and the
// high-water marks come out the same regardless. A report whose
// (ReaderID, Seq) was already ingested is dropped and counted in
// Deduped — redelivered batches from an at-least-once uplink are
// idempotent.
func (s *Store) AddBatch(rs []*telemetry.Report) {
	s.ingest(rs)
}

// ingest is the shared Add/AddBatch path, in three phases. Phase 1
// claims each report's (ReaderID, Seq) in the dedupe set under
// ingestMu, so two connections racing the same redelivered sequence
// admit exactly one copy. Phase 2 inserts the admitted reports into
// their shards and the sighting index without holding ingestMu. Phase
// 3 advances the barrier counters and wakes waiters — only after the
// shard insert, so a barrier that returns never races a report that is
// counted but not yet queryable.
func (s *Store) ingest(rs []*telemetry.Report) {
	fresh := rs
	copied := false
	var dupIDs []uint32
	s.ingestMu.Lock()
	for i, r := range rs {
		dup := false
		if r.Seq != 0 {
			set := s.seen[r.ReaderID]
			if set == nil {
				set = make(map[uint32]struct{})
				s.seen[r.ReaderID] = set
			}
			if _, dup = set[r.Seq]; !dup {
				set[r.Seq] = struct{}{}
			}
		}
		if dup {
			if !copied {
				// First duplicate: stop aliasing the caller's slice.
				fresh = append(make([]*telemetry.Report, 0, len(rs)-1), rs[:i]...)
				copied = true
			}
			dupIDs = append(dupIDs, r.ReaderID)
		} else if copied {
			fresh = append(fresh, r)
		}
	}
	s.ingestMu.Unlock()

	for _, r := range fresh {
		s.addToShard(r)
		s.indexSightings(r)
	}

	s.ingestMu.Lock()
	for _, r := range fresh {
		s.recv[r.ReaderID]++
		s.copies[r.ReaderID]++
		if r.Seq > s.high[r.ReaderID] {
			s.high[r.ReaderID] = r.Seq
		}
	}
	for _, id := range dupIDs {
		s.copies[id]++
		s.deduped[id]++
	}
	if s.waiters > 0 {
		s.ingestCv.Broadcast()
	}
	s.ingestMu.Unlock()
}

func (s *Store) addToShard(r *telemetry.Report) {
	sh := s.shardFor(r.ReaderID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	h := append(sh.history[r.ReaderID], r)
	// A report can arrive behind its reader's tail (a retried batch, a
	// reader re-uplinking over a second path). Sequence-keyed insertion
	// keeps each reader's retained window in Seq order so CountSeries
	// and Latest stay correct under out-of-order ingest; Seq 0 marks
	// pre-sequencing senders and keeps plain arrival order.
	if n := len(h) - 1; n > 0 && r.Seq != 0 && h[n-1].Seq > r.Seq {
		i := sort.Search(n, func(k int) bool { return h[k].Seq > r.Seq })
		copy(h[i+1:], h[i:n])
		h[i] = r
	}
	if len(h) > s.keep {
		// Trim by copying the tail to the front of the backing array.
		// A plain re-slice (h = h[len(h)-keep:]) walks the retained
		// window down the array instead, pinning every dropped report
		// until the slice next reallocates — at a busy reader that is
		// up to keep dead reports (spikes and all) held live at a time.
		n := copy(h, h[len(h)-s.keep:])
		clear(h[n:]) // drop stale pointers beyond the window
		h = h[:n]
	}
	sh.history[r.ReaderID] = h
}

// indexSightings records the report's decoded spikes in the
// find-my-car index, keeping the latest sighting per transponder id.
// idMu is taken once per report, and not at all for the common report
// with no decoded spikes.
//
// Ties on the timestamp resolve to the smaller reader id (sightingWins)
// rather than to whichever report happened to be ingested first, so the
// index is a pure function of the report set — the property that lets a
// partitioned collector tier merge per-partition indexes and land on
// exactly the answer one global store would give.
func (s *Store) indexSightings(r *telemetry.Report) {
	locked := false
	for i := range r.Spikes {
		sp := &r.Spikes[i]
		if sp.DecodedID == 0 {
			continue
		}
		if !locked {
			s.idMu.Lock()
			locked = true
		}
		cand := CarSighting{ReaderID: r.ReaderID, Seen: r.Timestamp, FreqHz: sp.FreqHz}
		if prev, ok := s.byID[sp.DecodedID]; !ok || SightingWins(cand, prev) {
			s.byID[sp.DecodedID] = cand
		}
	}
	if locked {
		s.idMu.Unlock()
	}
}

// SightingWins reports whether sighting a beats sighting b as "the
// latest sighting" of a transponder: later timestamps win, and ties
// break on the smaller reader id. It is the single ordering rule shared
// by the store's index and any cross-partition merge over several
// stores, which is what keeps find-my-car answers independent of how
// many collectors the reports were split across.
func SightingWins(a, b CarSighting) bool {
	if !a.Seen.Equal(b.Seen) {
		return a.Seen.After(b.Seen)
	}
	return a.ReaderID < b.ReaderID
}

// HighWater returns the largest Report.Seq ingested from a reader
// (zero when none, or when the reader does not stamp sequences).
func (s *Store) HighWater(readerID uint32) uint32 {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	return s.high[readerID]
}

// TotalReports returns the number of retained reports across all
// readers (retention trims per-reader history to the keep window).
func (s *Store) TotalReports() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, h := range sh.history {
			n += len(h)
		}
		sh.mu.RUnlock()
	}
	return n
}

// SeqsReceived returns the number of distinct reports accepted from a
// reader (its expected-seq set's realized size).
func (s *Store) SeqsReceived(readerID uint32) int {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	return s.recv[readerID]
}

// Deduped returns the number of duplicate reports absorbed from a
// reader — redelivered (ReaderID, Seq) pairs the dedupe key rejected.
func (s *Store) Deduped(readerID uint32) int {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	return s.deduped[readerID]
}

// DedupedTotal sums Deduped over all readers.
func (s *Store) DedupedTotal() int {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	n := 0
	for _, d := range s.deduped {
		n += d
	}
	return n
}

// MissingSeqs lists the sequence numbers in [1, max] never received
// from a reader — the realized loss a chaos run charges against its
// loss budget.
func (s *Store) MissingSeqs(readerID uint32, max uint32) []uint32 {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	var missing []uint32
	set := s.seen[readerID]
	for seq := uint32(1); seq <= max; seq++ {
		if _, ok := set[seq]; !ok {
			missing = append(missing, seq)
		}
	}
	return missing
}

// waitOn is the shared barrier loop: it sleeps on the ingest condition
// until reached() (evaluated under ingestMu) holds or the timeout
// elapses, in which case it returns lagErr(). sync.Cond has no timed
// wait; an AfterFunc broadcast bounds the sleep and the loop re-checks
// the deadline on every wake.
func (s *Store) waitOn(timeout time.Duration, reached func() bool, lagErr func() error) error {
	deadline := time.Now().Add(timeout)
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	s.waiters++
	defer func() { s.waiters-- }()
	timer := time.AfterFunc(timeout, func() {
		s.ingestMu.Lock()
		s.ingestCv.Broadcast()
		s.ingestMu.Unlock()
	})
	defer timer.Stop()
	for !reached() {
		if !time.Now().Before(deadline) {
			return lagErr()
		}
		s.ingestCv.Wait()
	}
	return nil
}

// WaitHighWater blocks until every reader in want has delivered a
// report with Seq ≥ its wanted mark, or the timeout elapses. It is the
// per-reader completion barrier for pipelined ingest: unlike a global
// report count, it cannot be satisfied by one reader's surplus masking
// another's missing uplink, and it is insensitive to the order in which
// readers' batches interleave on the wire. The error, if any, names
// each lagging reader and how far it got.
//
// WaitHighWater assumes lossless delivery: if any report is lost the
// mark is never reached and the barrier burns its whole timeout. Runs
// that inject or tolerate loss use WaitDelivered instead.
func (s *Store) WaitHighWater(want map[uint32]uint32, timeout time.Duration) error {
	return s.waitOn(timeout,
		func() bool {
			for id, seq := range want {
				if s.high[id] < seq {
					return false
				}
			}
			return true
		},
		func() error {
			var lag []string
			for id, seq := range want {
				if got := s.high[id]; got < seq {
					lag = append(lag, fmt.Sprintf("reader %d at seq %d of %d", id, got, seq))
				}
			}
			sort.Strings(lag)
			return fmt.Errorf("collector: %d readers behind at timeout: %s", len(lag), strings.Join(lag, "; "))
		})
}

// WaitDelivered is the gap-tolerant drain barrier: it blocks until
// every reader in want has landed at least want[id] − budget[id]
// distinct reports, or the timeout elapses. want[id] is the size of
// the reader's expected sequence set (seqs 1..want[id]); budget[id] is
// its loss allowance — the reports known to have been dropped on the
// uplink (injected frame loss, a degraded client's give-ups). A lost
// report thus ends the run with accounted loss instead of a barrier
// hung until timeout; with an all-zero budget the condition is exactly
// "every report landed".
func (s *Store) WaitDelivered(want map[uint32]uint32, budget map[uint32]int, timeout time.Duration) error {
	need := func(id uint32) int {
		n := int(want[id]) - budget[id]
		if n < 0 {
			n = 0
		}
		return n
	}
	return s.waitOn(timeout,
		func() bool {
			for id := range want {
				if s.recv[id] < need(id) {
					return false
				}
			}
			return true
		},
		func() error {
			var lag []string
			for id := range want {
				if got := s.recv[id]; got < need(id) {
					lag = append(lag, fmt.Sprintf("reader %d delivered %d of %d (loss budget %d)",
						id, got, want[id], budget[id]))
				}
			}
			sort.Strings(lag)
			return fmt.Errorf("collector: %d readers behind at timeout: %s", len(lag), strings.Join(lag, "; "))
		})
}

// WaitCopies blocks until every reader in want has landed at least
// want[id] report copies — duplicates included. Chaos harnesses use it
// to let redelivered duplicates settle before reading the dedupe
// counters, so the counters they assert on are exactly reproducible.
func (s *Store) WaitCopies(want map[uint32]int, timeout time.Duration) error {
	return s.waitOn(timeout,
		func() bool {
			for id, n := range want {
				if s.copies[id] < n {
					return false
				}
			}
			return true
		},
		func() error {
			var lag []string
			for id, n := range want {
				if got := s.copies[id]; got < n {
					lag = append(lag, fmt.Sprintf("reader %d at %d of %d copies", id, got, n))
				}
			}
			sort.Strings(lag)
			return fmt.Errorf("collector: copies still in flight at timeout: %s", strings.Join(lag, "; "))
		})
}

// Latest returns the most recent report from a reader, or nil.
func (s *Store) Latest(readerID uint32) *telemetry.Report {
	sh := s.shardFor(readerID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	h := sh.history[readerID]
	if len(h) == 0 {
		return nil
	}
	return h[len(h)-1]
}

// Readers lists reader ids seen so far, sorted.
func (s *Store) Readers() []uint32 {
	var ids []uint32
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id := range sh.history {
			ids = append(ids, id)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// CountSeries returns (timestamp, count) pairs from a reader within
// [from, to] — the raw material of the paper's Fig 12 traffic plot.
func (s *Store) CountSeries(readerID uint32, from, to time.Time) (ts []time.Time, counts []int) {
	sh := s.shardFor(readerID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for _, r := range sh.history[readerID] {
		if r.Timestamp.Before(from) || r.Timestamp.After(to) {
			continue
		}
		ts = append(ts, r.Timestamp)
		counts = append(counts, r.Count)
	}
	return ts, counts
}

// CarSighting is a find-my-car answer.
type CarSighting struct {
	ReaderID uint32
	Seen     time.Time
	FreqHz   float64
}

// FindCar locates the latest sighting of a decoded transponder id
// (§4: "allowing a user who forgets where he parked to query the
// system to locate his parked car"). It reads the secondary index —
// O(1) instead of scanning every reader's history — and, unlike the
// pre-index scan, still answers after retention has trimmed the report
// that carried the sighting.
func (s *Store) FindCar(id uint64) (CarSighting, bool) {
	s.idMu.RLock()
	defer s.idMu.RUnlock()
	sight, ok := s.byID[id]
	return sight, ok
}

// DecodedIDAt returns the smallest decoded transponder id whose last
// sighting's CFO is within tol of freq, or zero — the association step
// that attaches an identity to a CFO-keyed speed violation. Reading the
// index instead of scanning history makes it O(decoded ids) and, by
// taking the smallest match, deterministic when several ids share a
// CFO bin.
func (s *Store) DecodedIDAt(freq, tol float64) uint64 {
	s.idMu.RLock()
	defer s.idMu.RUnlock()
	best := uint64(0)
	for id, sgt := range s.byID {
		d := sgt.FreqHz - freq
		if d < 0 {
			d = -d
		}
		if d <= tol && (best == 0 || id < best) {
			best = id
		}
	}
	return best
}

// SightingsSnapshot returns a copy of the transponder-id → latest-
// sighting index. It is the raw material a multi-collector query router
// merges: per-id maxima under SightingWins folded across partitions
// equal the index one global store would have built, so answers that
// depend on "the latest sighting of id X" (DecodedIDAt's tolerance
// filter, find-my-car) stay partition-count independent.
func (s *Store) SightingsSnapshot() map[uint64]CarSighting {
	s.idMu.RLock()
	defer s.idMu.RUnlock()
	out := make(map[uint64]CarSighting, len(s.byID))
	for id, sgt := range s.byID {
		out[id] = sgt
	}
	return out
}

// SightingsByCFO returns, for each reader, its most recent spike whose
// CFO is within tol of freq — the cross-reader association step used
// by two-pole localization and speed checks (§6–§7).
func (s *Store) SightingsByCFO(freq, tol float64) map[uint32]CarSighting {
	out := make(map[uint32]CarSighting)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for readerID, h := range sh.history {
			for j := len(h) - 1; j >= 0; j-- {
				r := h[j]
				hit := false
				for _, sp := range r.Spikes {
					d := sp.FreqHz - freq
					if d < 0 {
						d = -d
					}
					if d <= tol {
						out[readerID] = CarSighting{ReaderID: readerID, Seen: r.Timestamp, FreqHz: sp.FreqHz}
						hit = true
						break
					}
				}
				if hit {
					break
				}
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// historyFor returns the live retained window for one reader — a test
// hook for the retention regression tests, which assert on the backing
// array itself.
func (s *Store) historyFor(readerID uint32) []*telemetry.Report {
	sh := s.shardFor(readerID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.history[readerID]
}
