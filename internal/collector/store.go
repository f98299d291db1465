package collector

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"caraoke/internal/telemetry"
)

// seqSet is the set of sequence numbers (≥ 1) ingested from one reader —
// the dedupe key that makes at-least-once redelivery idempotent. It is a
// contiguous floor (every seq ≤ floor is in the set) plus a sparse map
// of 64-seq bitmap words for the seqs above it, so its size follows the
// reader's loss, not its lifetime: in-order delivery only ever advances
// the floor and keeps no map entry, a lost seq pins one word per 64
// later seqs until it is redelivered, and a hostile Seq = MaxUint32
// costs one word, never a dense allocation.
type seqSet struct {
	floor uint32
	words map[uint32]uint64 // seq>>6 → bit seq&63, seqs above floor only
}

func (s *seqSet) has(seq uint32) bool {
	return seq <= s.floor || s.words[seq>>6]&(1<<(seq&63)) != 0
}

// add inserts seq and reports whether it was new.
func (s *seqSet) add(seq uint32) bool {
	if s.has(seq) {
		return false
	}
	if seq != s.floor+1 {
		if s.words == nil {
			s.words = make(map[uint32]uint64)
		}
		s.words[seq>>6] |= 1 << (seq & 63)
		return true
	}
	// The floor advances over seq, then over every seq already waiting
	// directly above it, releasing their words as they empty.
	s.floor = seq
	for s.floor != math.MaxUint32 && s.has(s.floor+1) {
		s.floor++
		w, bit := s.floor>>6, uint64(1)<<(s.floor&63)
		if s.words[w] &^= bit; s.words[w] == 0 {
			delete(s.words, w)
		}
	}
	return true
}

// readerLog is everything the store keeps about one reader: its retained
// history and its delivery ledger.
type readerLog struct {
	// history is the retained window, in Seq order (see insert).
	history []*telemetry.Report
	// seen dedupes (ReaderID, Seq).
	seen seqSet
	// high is the largest Report.Seq ingested — the completion mark
	// WaitHighWater checks, robust to out-of-order arrival across
	// readers because each reader's uplink stamps its own monotone
	// sequence.
	high uint32
	// recv counts distinct reports accepted, copies every arrival
	// including duplicates, deduped their difference — the duplicates
	// absorbed.
	recv, copies, deduped int
}

// Store keeps the most recent reports per reader in one ledger entry
// per reader id. A secondary index maps decoded transponder ids to
// their latest sighting, so find-my-car is a map lookup instead of a
// scan over every reader's whole history.
type Store struct {
	keep int

	// mu guards readers and every readerLog behind it. Its write side
	// is also the locker of cv, the condition the Wait* barriers sleep
	// on; waiters counts them so ingest only broadcasts when someone
	// listens.
	mu      sync.RWMutex
	cv      *sync.Cond
	waiters int
	readers map[uint32]*readerLog

	// idMu guards the transponder-id → latest-sighting index; ingest
	// takes it nested inside mu, queries take it alone. Unlike retained
	// history, the index survives retention trims: a parked car's last
	// sighting stays queryable however much traffic has flowed since
	// (§4's find-my-car wants exactly that).
	idMu sync.RWMutex
	byID map[uint64]CarSighting
}

// NewStore creates a store retaining up to keep reports per reader.
func NewStore(keep int) *Store {
	if keep <= 0 {
		keep = 1024
	}
	s := &Store{
		keep:    keep,
		readers: make(map[uint32]*readerLog),
		byID:    make(map[uint64]CarSighting),
	}
	s.cv = sync.NewCond(&s.mu)
	return s
}

// DefaultShards and NewShardedStore are the deprecated spelling of
// NewStore that perfbench/ still compiles against; the store has no
// shards and the count is ignored.
const DefaultShards = 1

func NewShardedStore(keep, _ int) *Store { return NewStore(keep) }

// Add ingests one report.
func (s *Store) Add(r *telemetry.Report) {
	s.AddBatch([]*telemetry.Report{r})
}

// AddBatch is the one ingest path: a single acquisition of mu per call,
// waking the barriers once. Batches from different readers may arrive
// in any interleaving — each report is keyed by (ReaderID, Seq), so
// per-reader history order and the high-water marks come out the same
// regardless. A report whose (ReaderID, Seq) was already ingested is
// dropped and counted in Deduped — redelivered batches from an
// at-least-once uplink are idempotent.
//
// The dedupe claim and the insert share the critical section, so two
// connections racing the same redelivered sequence admit exactly one
// copy. The counters advance only after the report is in its history
// and in the sighting index, and the barriers wake under the same lock:
// one that returns never races a report that is counted but not yet
// queryable, by Latest or by FindCar.
func (s *Store) AddBatch(rs []*telemetry.Report) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range rs {
		lg := s.readers[r.ReaderID]
		if lg == nil {
			lg = &readerLog{}
			s.readers[r.ReaderID] = lg
		}
		lg.copies++
		if !lg.seen.add(r.Seq) {
			lg.deduped++
			continue
		}
		lg.insert(r, s.keep)
		s.indexSightings(r)
		lg.recv++
		if r.Seq > lg.high {
			lg.high = r.Seq
		}
	}
	if s.waiters > 0 {
		s.cv.Broadcast()
	}
}

// insert appends r to the retained window and trims it to keep.
func (lg *readerLog) insert(r *telemetry.Report, keep int) {
	h := append(lg.history, r)
	// A report can arrive behind its reader's tail (a retried batch, a
	// reader re-uplinking over a second path). Sequence-keyed insertion
	// keeps each reader's retained window in Seq order so CountSeries
	// and Latest stay correct under out-of-order ingest.
	if n := len(h) - 1; n > 0 && h[n-1].Seq > r.Seq {
		i := sort.Search(n, func(k int) bool { return h[k].Seq > r.Seq })
		copy(h[i+1:], h[i:n])
		h[i] = r
	}
	if drop := len(h) - keep; drop > 0 {
		// Trim by clearing the slots leaving the window, then re-slicing
		// past them. The window walks up the backing array until append
		// regrows it, copying only the live window, so a trim costs O(1)
		// amortized. Clearing first keeps the array's head from pinning
		// every dropped report (spikes and all) until that regrowth.
		clear(h[:drop])
		h = h[drop:]
	}
	lg.history = h
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

// entry returns a copy of a reader's log for reading; a reader never
// heard from reads as the zero log. The caller holds mu.
func (s *Store) entry(readerID uint32) readerLog {
	if lg := s.readers[readerID]; lg != nil {
		return *lg
	}
	return readerLog{}
}

// ledger is entry under the read lock.
func (s *Store) ledger(readerID uint32) readerLog {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.entry(readerID)
}

// SeqsReceived returns the number of distinct reports accepted from a
// reader (its expected-seq set's realized size).
func (s *Store) SeqsReceived(readerID uint32) int { return s.ledger(readerID).recv }

// Deduped returns the number of duplicate reports absorbed from a
// reader — redelivered (ReaderID, Seq) pairs the dedupe key rejected.
func (s *Store) Deduped(readerID uint32) int { return s.ledger(readerID).deduped }

// DedupedTotal sums Deduped over all readers.
func (s *Store) DedupedTotal() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, lg := range s.readers {
		n += lg.deduped
	}
	return n
}

// MissingSeqs lists the sequence numbers in [1, max] never received
// from a reader — the realized loss a chaos run charges against its
// loss budget.
func (s *Store) MissingSeqs(readerID uint32, max uint32) []uint32 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	seen := s.entry(readerID).seen
	var missing []uint32
	// Nothing at or below the floor is missing. The loop variable is
	// wider than a seq so that max = MaxUint32 ends the loop instead
	// of wrapping to 0.
	for seq := uint64(seen.floor) + 1; seq <= uint64(max); seq++ {
		if !seen.has(uint32(seq)) {
			missing = append(missing, uint32(seq))
		}
	}
	return missing
}

// waitFor is the one barrier loop: it sleeps on the ingest condition
// until counter reads at least want[id] for every reader in want, or
// the timeout elapses, in which case it returns each lagging reader's
// progress (nil means the barrier was reached). sync.Cond has no timed
// wait; an AfterFunc broadcast bounds the sleep and the loop re-checks
// the deadline on every wake.
func waitFor[N int | uint32](s *Store, timeout time.Duration, want map[uint32]N, counter func(readerLog) N) map[uint32]N {
	deadline := time.Now().Add(timeout)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.waiters++
	defer func() { s.waiters-- }()
	timer := time.AfterFunc(timeout, func() {
		s.mu.Lock()
		s.cv.Broadcast()
		s.mu.Unlock()
	})
	defer timer.Stop()
	lag := make(map[uint32]N) // one map per call, not one per wake-up
	for {
		clear(lag)
		for id, n := range want {
			if got := counter(s.entry(id)); got < n {
				lag[id] = got
			}
		}
		if len(lag) == 0 {
			return nil
		}
		if !time.Now().Before(deadline) {
			return lag
		}
		s.cv.Wait()
	}
}

// lagError renders a timed-out barrier: head, then one line per lagging
// reader in a fixed order. A nil lag (barrier reached) is no error.
func lagError[N int | uint32](head string, lag map[uint32]N, line func(id uint32, got N) string) error {
	if lag == nil {
		return nil
	}
	lines := make([]string, 0, len(lag))
	for id, got := range lag {
		lines = append(lines, line(id, got))
	}
	sort.Strings(lines)
	return fmt.Errorf("collector: "+head+": %s", strings.Join(lines, "; "))
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
	lag := waitFor(s, timeout, want, func(lg readerLog) uint32 { return lg.high })
	return lagError(fmt.Sprintf("%d readers behind at timeout", len(lag)), lag, func(id, got uint32) string {
		return fmt.Sprintf("reader %d at seq %d of %d", id, got, want[id])
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
	need := make(map[uint32]int, len(want))
	for id, n := range want {
		need[id] = max(int(n)-budget[id], 0)
	}
	lag := waitFor(s, timeout, need, func(lg readerLog) int { return lg.recv })
	return lagError(fmt.Sprintf("%d readers behind at timeout", len(lag)), lag, func(id uint32, got int) string {
		return fmt.Sprintf("reader %d delivered %d of %d (loss budget %d)", id, got, want[id], budget[id])
	})
}

// WaitCopies blocks until every reader in want has landed at least
// want[id] report copies — duplicates included. Chaos harnesses use it
// to let redelivered duplicates settle before reading the dedupe
// counters, so the counters they assert on are exactly reproducible.
func (s *Store) WaitCopies(want map[uint32]int, timeout time.Duration) error {
	lag := waitFor(s, timeout, want, func(lg readerLog) int { return lg.copies })
	return lagError("copies still in flight at timeout", lag, func(id uint32, got int) string {
		return fmt.Sprintf("reader %d at %d of %d copies", id, got, want[id])
	})
}

// Latest returns the most recent report from a reader, or nil.
func (s *Store) Latest(readerID uint32) *telemetry.Report {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if h := s.entry(readerID).history; len(h) > 0 {
		return h[len(h)-1]
	}
	return nil
}

// Readers lists reader ids seen so far, sorted.
func (s *Store) Readers() []uint32 {
	var ids []uint32
	s.mu.RLock()
	for id := range s.readers {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// CountSeries returns (timestamp, count) pairs from a reader within
// [from, to] — the raw material of the paper's Fig 12 traffic plot.
func (s *Store) CountSeries(readerID uint32, from, to time.Time) (ts []time.Time, counts []int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, r := range s.entry(readerID).history {
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

// DecodedIDAt returns the decoded transponder id whose latest
// sighting's CFO is nearest freq, within tol, or zero — the association
// step that attaches an identity to a CFO-keyed speed violation. It
// reads the index instead of scanning history (NearestID has the rule).
func (s *Store) DecodedIDAt(freq, tol float64) uint64 {
	s.idMu.RLock()
	defer s.idMu.RUnlock()
	return NearestID(s.byID, freq, tol)
}

// NearestID is the one rule DecodedIDAt answers by, over an index of
// latest sightings: the id whose CFO is nearest freq and within tol,
// ties to the smaller id, or zero. Nearest, not smallest: in a city
// several decoded cars often sit within a speed check's tolerance, and
// the nearest CFO is the car the check measured.
func NearestID(index map[uint64]CarSighting, freq, tol float64) uint64 {
	best, bestD := uint64(0), math.Inf(1)
	for id, sgt := range index {
		d := math.Abs(sgt.FreqHz - freq)
		if d <= tol && (d < bestD || d == bestD && id < best) {
			best, bestD = id, d
		}
	}
	return best
}

// SightingsSnapshot returns a copy of the transponder-id → latest-
// sighting index. It is the raw material a multi-collector query router
// merges: per-id maxima under SightingWins folded across partitions
// equal the index one global store would have built, so answers that
// depend on "the latest sighting of id X" (DecodedIDAt's nearest-CFO
// rule, find-my-car) stay partition-count independent.
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
// by two-pole localization and speed checks (§6–§7). The answer is
// keyed by reader, so map iteration order never reaches it.
func (s *Store) SightingsByCFO(freq, tol float64) map[uint32]CarSighting {
	out := make(map[uint32]CarSighting)
	s.mu.RLock()
	defer s.mu.RUnlock()
readers:
	for readerID, lg := range s.readers {
		for j := len(lg.history) - 1; j >= 0; j-- {
			r := lg.history[j]
			for _, sp := range r.Spikes {
				if math.Abs(sp.FreqHz-freq) <= tol {
					out[readerID] = CarSighting{ReaderID: readerID, Seen: r.Timestamp, FreqHz: sp.FreqHz}
					continue readers
				}
			}
		}
	}
	return out
}
