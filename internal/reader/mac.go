package reader

import (
	"math/rand"
	"sort"
	"time"

	"caraoke/internal/phy"
)

// The §9 reader MAC: a query colliding with another *query* is
// harmless (two sinewaves at the carrier are still a valid trigger),
// but a query colliding with a transponder *response* destroys the
// response. Each reader therefore carrier-senses for 120 µs — longer
// than query (20 µs) plus turnaround (100 µs) — so any response that
// could still be pending would already be audible.

// MACStats summarizes a contention simulation.
type MACStats struct {
	QueriesSent     int
	QueriesDeferred int
	// QueryResponseOverlaps counts harmful collisions: a query
	// transmitted while another reader's triggered response was on the
	// air (or a response starting during a foreign query).
	QueryResponseOverlaps int
	// QueryQueryOverlaps counts benign query/query collisions.
	QueryQueryOverlaps int
}

// macEvent is one reader's transaction on the medium.
type macEvent struct {
	start time.Duration // query start
}

const (
	queryDur   = phy.QueryDuration
	turnaround = phy.TurnaroundDelay
	respDur    = phy.ResponseDuration
	txnDur     = queryDur + turnaround + respDur
)

// SimulateMAC runs `readers` readers over `span`, each attempting
// queries as a Poisson process of `rate` per second, with or without
// the §9 carrier-sense rule, and reports collision statistics. The
// carrier-sense rule defers a query while any part of another reader's
// transaction (query or pending/ongoing response) would be detected
// during the 120 µs sensing window.
func SimulateMAC(readers int, span time.Duration, rate float64, withCSMA bool, rng *rand.Rand) MACStats {
	// Draw all attempt times up front.
	var attempts []macEvent
	for range readers {
		t := time.Duration(0)
		for {
			// Exponential inter-arrival.
			gap := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
			t += gap
			if t >= span {
				break
			}
			attempts = append(attempts, macEvent{start: t})
		}
	}
	sort.Slice(attempts, func(i, j int) bool { return attempts[i].start < attempts[j].start })

	var stats MACStats
	var sent []macEvent
	for _, a := range attempts {
		if withCSMA {
			// Sense [a.start − 120 µs, a.start): the medium is busy if
			// any prior transaction overlaps that window. Responses
			// and queries are both audible energy.
			busy := false
			senseFrom := a.start - phy.CarrierSenseWindow
			for i := len(sent) - 1; i >= 0; i-- {
				p := sent[i]
				if p.start+txnDur <= senseFrom {
					break // sorted: nothing earlier can overlap
				}
				// Energy intervals of transaction p: query and response.
				if intervalsOverlap(p.start, p.start+queryDur, senseFrom, a.start) ||
					intervalsOverlap(p.start+queryDur+turnaround, p.start+txnDur, senseFrom, a.start) {
					busy = true
					break
				}
			}
			if busy {
				stats.QueriesDeferred++
				continue
			}
		}
		// Count collisions against already-sent transactions.
		for i := len(sent) - 1; i >= 0; i-- {
			p := sent[i]
			if p.start+txnDur <= a.start-txnDur {
				break
			}
			// Harmful: a's query during p's response, or p's query
			// during a's response.
			if intervalsOverlap(a.start, a.start+queryDur, p.start+queryDur+turnaround, p.start+txnDur) ||
				intervalsOverlap(p.start, p.start+queryDur, a.start+queryDur+turnaround, a.start+txnDur) {
				stats.QueryResponseOverlaps++
			}
			// Benign: query/query.
			if intervalsOverlap(a.start, a.start+queryDur, p.start, p.start+queryDur) {
				stats.QueryQueryOverlaps++
			}
		}
		sent = append(sent, a)
		stats.QueriesSent++
	}
	return stats
}

func intervalsOverlap(a0, a1, b0, b1 time.Duration) bool {
	return a0 < b1 && b0 < a1
}
