package clock

import (
	"math/rand"
	"testing"
	"time"
)

var epoch = time.Date(2015, 8, 17, 9, 0, 0, 0, time.UTC)

func TestClockOffsetAndDrift(t *testing.T) {
	c := New(50*time.Millisecond, 20, epoch) // 20 ppm
	if got := c.Offset(epoch); got != 50*time.Millisecond {
		t.Errorf("offset at epoch = %v", got)
	}
	// After 1000 s, 20 ppm drift adds 20 ms.
	later := epoch.Add(1000 * time.Second)
	want := 50*time.Millisecond + 20*time.Millisecond
	if got := c.Offset(later); got < want-time.Millisecond || got > want+time.Millisecond {
		t.Errorf("offset after drift = %v, want ≈%v", got, want)
	}
}

func TestClockAdjust(t *testing.T) {
	c := New(100*time.Millisecond, 0, epoch)
	c.Adjust(-40 * time.Millisecond)
	if got := c.Offset(epoch); got != 60*time.Millisecond {
		t.Errorf("offset after adjust = %v", got)
	}
}

func TestSyncConvergesToTensOfMs(t *testing.T) {
	// §6/§7: NTP over LTE synchronizes to within tens of ms.
	rng := rand.New(rand.NewSource(1))
	worst := time.Duration(0)
	for trial := 0; trial < 50; trial++ {
		c := New(time.Duration(rng.Intn(2000)-1000)*time.Millisecond, 30, epoch)
		var resid time.Duration
		for i := 0; i < 4; i++ {
			resid = Sync(c, epoch.Add(time.Duration(i)*time.Minute), rng)
		}
		if resid < 0 {
			resid = -resid
		}
		if resid > worst {
			worst = resid
		}
	}
	if worst > 60*time.Millisecond {
		t.Errorf("worst residual offset %v, want tens of ms", worst)
	}
	if worst == 0 {
		t.Error("sync is implausibly perfect (asymmetry not modeled?)")
	}
}

// TestSyncBoundsDriftingClock: periodic resync must hold a drifting
// clock near true time for the whole run, while the same clock left
// free-running walks off — the drift-correction contract the chaos
// harness (internal/city) relies on for its speed-pair timestamps.
func TestSyncBoundsDriftingClock(t *testing.T) {
	const (
		driftPPM = 2000 // a badly broken oscillator
		total    = 200 * time.Second
		interval = 10 * time.Second
	)
	rng := rand.New(rand.NewSource(7))
	synced := New(30*time.Millisecond, driftPPM, epoch)
	free := New(30*time.Millisecond, driftPPM, epoch)
	var worstSynced time.Duration
	for at := interval; at <= total; at += interval {
		now := epoch.Add(at)
		Sync(synced, now, rng)
		resid := synced.Offset(now)
		if resid < 0 {
			resid = -resid
		}
		if resid > worstSynced {
			worstSynced = resid
		}
	}
	end := epoch.Add(total)
	freeOff := free.Offset(end)
	if freeOff < 0 {
		freeOff = -freeOff
	}
	// 2000 ppm over 200 s accumulates 400 ms; the synced clock must
	// never exceed its per-interval drift (20 ms) plus the tens-of-ms
	// NTP residual (§6).
	if freeOff < 300*time.Millisecond {
		t.Fatalf("free-running clock only drifted %v — the scenario is vacuous", freeOff)
	}
	if worstSynced > 80*time.Millisecond {
		t.Errorf("worst synced offset %v; resync every %v should bound it to tens of ms", worstSynced, interval)
	}
	if worstSynced*3 >= freeOff {
		t.Errorf("syncing barely helped: worst %v vs free-running %v", worstSynced, freeOff)
	}
}

func TestClockConcurrentAccess(t *testing.T) {
	c := New(0, 10, epoch)
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			c.Adjust(time.Microsecond)
		}
		close(done)
	}()
	for i := 0; i < 1000; i++ {
		c.Now(epoch.Add(time.Duration(i) * time.Second))
	}
	<-done
}
