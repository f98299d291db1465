// Package clock models the time infrastructure Caraoke readers rely on
// for speed measurement (§7): each reader has a free-running local
// clock with offset and drift, disciplined over the network by an
// NTP-style exchange (§6: "We can leverage the readers' connection to
// the Internet to synchronize them to within tens of ms using the
// network timing protocol").
package clock

import (
	"math/rand"
	"sync"
	"time"
)

// Clock is a simulated local clock: it converts true (simulation) time
// into this device's local time, applying a fixed offset and a
// fractional drift rate.
type Clock struct {
	mu     sync.Mutex
	offset time.Duration // local − true at epoch
	drift  float64       // seconds of local drift per true second
	epoch  time.Time     // drift reference point
}

// New creates a clock with the given initial offset and drift rate
// (e.g. 20e-6 = 20 ppm, typical for cheap crystal oscillators).
func New(offset time.Duration, driftPPM float64, epoch time.Time) *Clock {
	return &Clock{offset: offset, drift: driftPPM * 1e-6, epoch: epoch}
}

// Now maps a true timestamp to this clock's local time.
func (c *Clock) Now(trueTime time.Time) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	elapsed := trueTime.Sub(c.epoch)
	driftTerm := time.Duration(float64(elapsed) * c.drift)
	return trueTime.Add(c.offset).Add(driftTerm)
}

// Offset returns the clock's current total offset from true time at
// the given instant.
func (c *Clock) Offset(trueTime time.Time) time.Duration {
	return c.Now(trueTime).Sub(trueTime)
}

// Adjust slews the clock by delta (applied to the fixed offset).
func (c *Clock) Adjust(delta time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.offset += delta
}

// The NTP exchange over a cellular link, per the paper's LTE deployment
// assumption.
const (
	// rttMean and rttJitter describe the round-trip time distribution.
	// LTE links give tens of ms RTTs with comparable jitter, which
	// bounds sync accuracy to "tens of ms" (§6/§7).
	rttMean   = 60 * time.Millisecond
	rttJitter = 30 * time.Millisecond
	// asymmetry is the fraction of RTT by which the forward and return
	// paths can differ; path asymmetry is NTP's irreducible error.
	asymmetry = 0.3
)

// Sync performs one simulated NTP exchange against a perfect time
// server at trueTime and slews the clock toward server time. It
// returns the residual offset after the exchange.
//
// The standard NTP offset estimate θ = ((t1−t0) + (t2−t3))/2 is exact
// only for symmetric paths; the residual error is half the path
// asymmetry, which is what keeps the readers at tens-of-ms accuracy
// rather than microseconds.
func Sync(c *Clock, trueTime time.Time, rng *rand.Rand) time.Duration {
	rtt := rttMean + time.Duration(rng.NormFloat64()*float64(rttJitter))
	if rtt < time.Millisecond {
		rtt = time.Millisecond
	}
	// Split the RTT asymmetrically between the two directions.
	asym := 1 + asymmetry*(2*rng.Float64()-1)
	fwd := time.Duration(float64(rtt) / 2 * asym)
	ret := rtt - fwd

	t0 := c.Now(trueTime)                   // client transmit (local)
	serverArrive := trueTime.Add(fwd)       // true time of server receipt
	t1 := serverArrive                      // server receive (true = server clock)
	t2 := serverArrive                      // server transmit
	clientArrive := trueTime.Add(fwd + ret) // true time of client receipt
	t3 := c.Now(clientArrive)               // client receive (local)

	theta := (t1.Sub(t0) + t2.Sub(t3)) / 2
	c.Adjust(theta)
	return c.Offset(clientArrive)
}
