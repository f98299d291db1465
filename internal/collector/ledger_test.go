package collector

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"caraoke/internal/telemetry"
)

func ledgerReport(readerID uint32, seq int) *telemetry.Report {
	return &telemetry.Report{
		ReaderID:  readerID,
		Seq:       uint32(seq),
		Timestamp: at(seq % 60),
		Count:     seq,
		Spikes: []telemetry.SpikeRecord{
			{FreqHz: 1e3 * float64(readerID), DecodedID: uint64(readerID)<<8 | uint64(seq%4)},
		},
	}
}

// TestFindCarMatchesScan: the secondary index must answer exactly what
// a full history scan answers while the sightings are still retained
// (the pre-index semantics).
func TestFindCarMatchesScan(t *testing.T) {
	s := NewStore(1024)
	for seq := 0; seq < 30; seq++ {
		for id := uint32(1); id <= 5; id++ {
			s.Add(ledgerReport(id, seq))
		}
	}
	scan := func(want uint64) (CarSighting, bool) {
		var best CarSighting
		found := false
		for _, readerID := range s.Readers() {
			for _, r := range s.historyFor(readerID) {
				for _, sp := range r.Spikes {
					if sp.DecodedID == want && (!found || r.Timestamp.After(best.Seen)) {
						best = CarSighting{ReaderID: readerID, Seen: r.Timestamp, FreqHz: sp.FreqHz}
						found = true
					}
				}
			}
		}
		return best, found
	}
	for id := uint32(1); id <= 5; id++ {
		for tag := uint64(0); tag < 4; tag++ {
			want := uint64(id)<<8 | tag
			gotS, gotOK := s.FindCar(want)
			wantS, wantOK := scan(want)
			if gotOK != wantOK || gotS != wantS {
				t.Fatalf("FindCar(%#x) = %+v/%v, scan says %+v/%v", want, gotS, gotOK, wantS, wantOK)
			}
		}
	}
	if _, ok := s.FindCar(0xDEAD); ok {
		t.Error("unknown id found")
	}
}

// TestStoreConcurrentBarrier is the -race stress for the ledger: many
// writers spraying reports across reader ids while service queries and
// the ingest barrier run against them.
func TestStoreConcurrentBarrier(t *testing.T) {
	s := NewStore(64)
	const (
		writers   = 8
		perWriter = 300
		readerIDs = 23
	)
	// The writers' frames are laid out up front so the barrier can be
	// told each reader's final high-water mark. A batch companion takes a
	// seq in a disjoint range: the store dedupes repeated (reader, seq)
	// pairs, and this test stresses concurrency, not redelivery.
	plans := make([][][]*telemetry.Report, writers)
	want := make(map[uint32]uint32)
	for w := range plans {
		for i := 0; i < perWriter; i++ {
			r := ledgerReport(uint32((w*perWriter+i)%readerIDs)+1, i)
			frame := []*telemetry.Report{r}
			if i%10 == 0 {
				frame = append(frame, ledgerReport(r.ReaderID, i+perWriter))
				i++ // the frame carries two
			}
			plans[w] = append(plans[w], frame)
			for _, r := range frame {
				if r.Seq > want[r.ReaderID] {
					want[r.ReaderID] = r.Seq
				}
			}
		}
	}
	done := make(chan error, 1)
	go func() {
		done <- s.WaitHighWater(want, 30*time.Second)
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, frame := range plans[w] {
				if len(frame) > 1 {
					s.AddBatch(frame)
				} else {
					s.Add(frame[0])
				}
			}
		}(w)
	}
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Latest(uint32(q + 1))
				s.Readers()
				s.CountSeries(uint32(q+1), at(0), at(59))
				s.FindCar(uint64(q+1)<<8 | 1)
				s.SightingsByCFO(float64(1000*(q+1)), 10)
				s.TotalReports()
				s.SeqsReceived(uint32(q + 1))
			}
		}(q)
	}
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatalf("WaitHighWater: %v", err)
	}
	got := 0
	for id := uint32(1); id <= readerIDs; id++ {
		got += s.SeqsReceived(id)
	}
	if got != writers*perWriter {
		t.Errorf("ingested %d, want %d", got, writers*perWriter)
	}
}

// TestWaitHighWaterTimesOut: a barrier that can never be satisfied must
// come back with an error at the deadline, not hang.
func TestWaitHighWaterTimesOut(t *testing.T) {
	s := NewStore(8)
	s.Add(ledgerReport(1, 1))
	start := time.Now()
	err := s.WaitHighWater(map[uint32]uint32{1: 2}, 50*time.Millisecond)
	if err == nil {
		t.Fatal("WaitHighWater returned nil without the mark being reached")
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("WaitHighWater took %v to time out", e)
	}
	// Satisfied barriers return immediately even with zero timeout
	// headroom left.
	if err := s.WaitHighWater(map[uint32]uint32{1: 1}, time.Millisecond); err != nil {
		t.Fatalf("satisfied barrier errored: %v", err)
	}
}

// TestStoreMatchesModel drives the ledger with everything an
// at-least-once uplink can do to it — shuffled, duplicated and
// out-of-order reports for several sequenced readers, Seq-0 reports for
// readers that do not stamp sequences, split over concurrent Add and
// AddBatch callers while other goroutines query — and then compares
// every counter and each reader's retained history with a map-based
// model of what was sent.
func TestStoreMatchesModel(t *testing.T) {
	const (
		keep      = 48
		sequenced = 4   // reader ids 1..4 stamp seqs
		unstamped = 2   // reader ids 5..6 send Seq 0 only
		maxSeq    = 150 // per sequenced reader
		writers   = 6
	)
	rng := rand.New(rand.NewSource(20))
	var arrivals []*telemetry.Report
	distinct := make(map[uint32]map[uint32]bool) // the model: reader → seqs sent
	copies := make(map[uint32]int)               // reader → arrivals
	for id := uint32(1); id <= sequenced; id++ {
		distinct[id] = make(map[uint32]bool)
		for seq := 1; seq <= maxSeq; seq++ {
			if rng.Intn(10) == 0 {
				continue // lost on the uplink: never arrives
			}
			distinct[id][uint32(seq)] = true
			r := ledgerReport(id, seq)
			for n := 1 + rng.Intn(3); n > 0; n-- { // redelivered up to twice
				arrivals = append(arrivals, r)
				copies[id]++
			}
		}
	}
	for id := uint32(sequenced + 1); id <= sequenced+unstamped; id++ {
		for n := 20 + rng.Intn(keep); n > 0; n-- {
			arrivals = append(arrivals, ledgerReport(id, 0))
			copies[id]++
		}
	}
	rng.Shuffle(len(arrivals), func(i, j int) { arrivals[i], arrivals[j] = arrivals[j], arrivals[i] })

	s := NewStore(keep)
	var wg, queriers sync.WaitGroup
	stop := make(chan struct{})
	for q := uint32(1); q <= 3; q++ {
		queriers.Add(1)
		go func(id uint32) {
			defer queriers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Latest(id)
				s.Readers()
				s.MissingSeqs(id, maxSeq)
				s.SightingsByCFO(1e3*float64(id), 10)
				s.FindCar(uint64(id) << 8)
				s.SeqsReceived(id)
				s.Deduped(id)
			}
		}(q)
	}
	per := (len(arrivals) + writers - 1) / writers
	for w := 0; w < writers; w++ {
		mine := arrivals[w*per : min((w+1)*per, len(arrivals))]
		wrng := rand.New(rand.NewSource(int64(w)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for len(mine) > 0 {
				n := min(1+wrng.Intn(5), len(mine))
				if n == 1 {
					s.Add(mine[0])
				} else {
					s.AddBatch(mine[:n])
				}
				mine = mine[n:]
			}
		}()
	}
	wg.Wait()
	close(stop)
	queriers.Wait()

	var wantReaders []uint32
	wantTotal := 0
	for id := uint32(1); id <= sequenced+unstamped; id++ {
		wantReaders = append(wantReaders, id)
		var sent, missing []uint32
		for seq := uint32(1); seq <= maxSeq; seq++ {
			if distinct[id][seq] {
				sent = append(sent, seq)
			} else {
				missing = append(missing, seq)
			}
		}
		wantRecv, wantHigh := len(sent), uint32(0)
		if id > sequenced {
			wantRecv = copies[id] // Seq 0 bypasses dedupe: every arrival lands
			sent = make([]uint32, wantRecv)
		} else {
			wantHigh = sent[len(sent)-1]
		}
		retained := sent[max(len(sent)-keep, 0):] // the keep largest seqs, ascending
		wantTotal += len(retained)

		lg := s.readers[id]
		if lg.recv+lg.deduped != lg.copies || lg.copies != copies[id] {
			t.Errorf("reader %d: recv %d + deduped %d != copies %d (sent %d)", id, lg.recv, lg.deduped, lg.copies, copies[id])
		}
		if got := s.SeqsReceived(id); got != wantRecv {
			t.Errorf("reader %d: SeqsReceived %d, model %d", id, got, wantRecv)
		}
		if got := s.Deduped(id); got != copies[id]-wantRecv {
			t.Errorf("reader %d: Deduped %d, model %d", id, got, copies[id]-wantRecv)
		}
		if got := s.ledger(id).high; got != wantHigh {
			t.Errorf("reader %d: high water %d, model %d", id, got, wantHigh)
		}
		if got := s.MissingSeqs(id, maxSeq); !reflect.DeepEqual(got, missing) {
			t.Errorf("reader %d: MissingSeqs %v, model %v", id, got, missing)
		}
		if got := seqs(s.historyFor(id)); !reflect.DeepEqual(got, retained) {
			t.Errorf("reader %d: history %v, model %v", id, got, retained)
		}
	}
	if got := s.Readers(); !reflect.DeepEqual(got, wantReaders) {
		t.Errorf("Readers %v, model %v", got, wantReaders)
	}
	if got := s.TotalReports(); got != wantTotal {
		t.Errorf("TotalReports %d, model %d", got, wantTotal)
	}
}

// TestBarrierImpliesVisible: the moment WaitHighWater or WaitDelivered
// returns for seq k, the report must answer queries — Latest from the
// history and FindCar from the sighting index — with ingest still
// running on this and other readers. (A counter that ran ahead of the
// index would let find-my-car miss a car the barrier vouched for.)
func TestBarrierImpliesVisible(t *testing.T) {
	const (
		n      = 400
		reader = 1
	)
	carOf := func(seq uint32) uint64 { return 0xCA000000 | uint64(seq) }
	s := NewStore(16)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the watched reader, in order, one unique car per report
		defer wg.Done()
		for seq := uint32(1); seq <= n; seq++ {
			r := robustReport(reader, seq)
			r.Spikes[0].DecodedID = carOf(seq)
			if seq%3 == 0 {
				s.AddBatch([]*telemetry.Report{r})
			} else {
				s.Add(r)
			}
		}
	}()
	go func() { // unrelated traffic through the same lock
		defer wg.Done()
		for seq := 1; seq <= n; seq++ {
			s.AddBatch([]*telemetry.Report{ledgerReport(2, seq), ledgerReport(3, seq)})
		}
	}()
	for seq := uint32(1); seq <= n; seq++ {
		var err error
		if seq%2 == 0 {
			err = s.WaitHighWater(map[uint32]uint32{reader: seq}, 10*time.Second)
		} else {
			err = s.WaitDelivered(map[uint32]uint32{reader: seq}, nil, 10*time.Second)
		}
		if err != nil {
			t.Fatalf("barrier for seq %d: %v", seq, err)
		}
		if sgt, ok := s.FindCar(carOf(seq)); !ok || sgt.ReaderID != reader {
			t.Fatalf("barrier returned for seq %d but FindCar says %+v/%v", seq, sgt, ok)
		}
		if last := s.Latest(reader); last == nil || last.Seq < seq {
			t.Fatalf("barrier returned for seq %d but Latest is %+v", seq, last)
		}
	}
	wg.Wait()
}

// TestSeenSetStaysSmall: the dedupe set must cost O(loss), not
// O(lifetime) — in-order delivery keeps no map entry however long the
// run — and must answer exactly as a plain set would on both sides of
// its floor.
func TestSeenSetStaysSmall(t *testing.T) {
	s := NewStore(4)
	const n = 1_000_000
	r := &telemetry.Report{ReaderID: 1}
	for seq := uint32(1); seq <= n; seq++ {
		r.Seq = seq
		s.Add(r)
	}
	seen := &s.readers[1].seen
	if seen.floor != n || len(seen.words) != 0 {
		t.Fatalf("after %d in-order seqs: floor %d, %d words; want floor %d and none", n, seen.floor, len(seen.words), n)
	}
	// A gap: n+1 is lost, the next 200 seqs arrive. They pin one word
	// per 64 seqs, not one entry each.
	for seq := uint32(n + 2); seq <= n+201; seq++ {
		s.Add(&telemetry.Report{ReaderID: 1, Seq: seq})
	}
	if seen.floor != n || len(seen.words) > 200/64+2 {
		t.Fatalf("behind a gap: floor %d, %d words; want floor %d and ≤ %d words", seen.floor, len(seen.words), n, 200/64+2)
	}
	if got := s.MissingSeqs(1, n+201); !reflect.DeepEqual(got, []uint32{n + 1}) {
		t.Fatalf("MissingSeqs = %v, want [%d]", got, n+1)
	}
	// Redelivery on both sides of the floor is deduped…
	before := s.SeqsReceived(1)
	s.Add(&telemetry.Report{ReaderID: 1, Seq: 17})      // far below the floor
	s.Add(&telemetry.Report{ReaderID: 1, Seq: n})       // the floor itself
	s.Add(&telemetry.Report{ReaderID: 1, Seq: n + 100}) // above it
	if got := s.SeqsReceived(1); got != before || s.Deduped(1) != 3 {
		t.Fatalf("redelivery admitted: received %d → %d, deduped %d (want 3)", before, got, s.Deduped(1))
	}
	// …and the late straggler closes the gap: the floor swallows every
	// waiting word.
	s.Add(&telemetry.Report{ReaderID: 1, Seq: n + 1})
	if seen.floor != n+201 || len(seen.words) != 0 {
		t.Fatalf("gap closed: floor %d, %d words; want floor %d and none", seen.floor, len(seen.words), n+201)
	}
	if got := s.MissingSeqs(1, n+201); got != nil {
		t.Fatalf("MissingSeqs after the straggler = %v, want none", got)
	}
	// A hostile top-of-range seq costs one word.
	s.Add(&telemetry.Report{ReaderID: 1, Seq: math.MaxUint32})
	if len(seen.words) != 1 || s.ledger(1).high != math.MaxUint32 {
		t.Fatalf("Seq MaxUint32: %d words, high water %d", len(seen.words), s.ledger(1).high)
	}
}

// BenchmarkStoreAdd measures ingest throughput under concurrent
// writers, each on a reader id of its own; run it at -cpu 1,2 to see
// what the one ledger lock costs when writers do run in parallel.
func BenchmarkStoreAdd(b *testing.B) {
	s := NewStore(1024)
	var next sync.Mutex
	id := uint32(0)
	b.RunParallel(func(pb *testing.PB) {
		next.Lock()
		id++
		my := id
		next.Unlock()
		seq := 0
		for pb.Next() {
			s.Add(ledgerReport(my, seq))
			seq++
		}
	})
}
