package city

import (
	"testing"
	"time"
)

// runThroughput runs the city end to end b.N times and reports
// delivered telemetry per wall-clock second — the metric of the
// lockstep-vs-pipelined comparison.
func runThroughput(b *testing.B, cfg Config) {
	b.Helper()
	b.ReportAllocs()
	var reports int
	start := time.Now()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reports += res.TotalReports
	}
	b.ReportMetric(float64(reports)/time.Since(start).Seconds(), "reports/sec")
}

// dwellHash is a seeded per-(reader,epoch) mix (splitmix64-style) used
// to draw duty-cycle dwells. It deliberately does NOT touch the
// measurement RNG streams: dwell only moves work in wall-clock time,
// and consuming a reader's stream for it would change the Results the
// equality tests compare.
func dwellHash(seed int64, readerID uint32, epoch int) uint64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(readerID)*0xBF58476D1CE4E5B9 ^ uint64(epoch)*0x94D049BB133111EB
	h ^= h >> 31
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 29
	return h
}

// dutyCycleDwell models §10 duty cycling: each reader spends most of
// the epoch asleep and wakes for its active window at a per-epoch
// offset drawn uniformly in [0, max). Lockstep pays the latest waker
// every epoch; the pipeline averages each reader's own offsets across
// epochs instead.
func dutyCycleDwell(seed int64, max time.Duration) func(uint32, int) time.Duration {
	return func(readerID uint32, epoch int) time.Duration {
		return time.Duration(dwellHash(seed, readerID, epoch) % uint64(max))
	}
}

// BenchmarkCityThroughput is the reference scale from the issue:
// 64 readers, 10000 vehicles. On a single-core host the DSP compute of
// all readers serializes, so the barrier costs little and the two
// modes land close together; the pipelined win here is on multi-core
// hosts and in the duty-cycled benchmark below.
func BenchmarkCityThroughput(b *testing.B) {
	base := Config{
		Readers: 64, Vehicles: 10000, Duration: 3 * time.Second,
		Seed: 1, DecodeEvery: -1, Batch: 4,
	}
	b.Run("lockstep", func(b *testing.B) {
		cfg := base
		cfg.lockstep = true
		runThroughput(b, cfg)
	})
	b.Run("pipelined", func(b *testing.B) {
		runThroughput(b, base)
	})
}

// BenchmarkCityDutyCycled is the same comparison with §10 duty-cycle
// dwells injected (uniform 0–400 ms active-window offsets, seeded per
// reader and epoch, identical in both modes). This is the workload the
// lockstep barrier actually hurts: every epoch ends only when the
// latest of 64 wakers has reported, while free-running readers overlap
// one reader's dwell with every other reader's compute and dwell.
func BenchmarkCityDutyCycled(b *testing.B) {
	base := Config{
		Readers: 64, Vehicles: 1000, Duration: 24 * time.Second,
		Seed: 1, DecodeEvery: -1, Batch: 4,
		measureDelay: dutyCycleDwell(1, 400*time.Millisecond),
	}
	b.Run("lockstep", func(b *testing.B) {
		cfg := base
		cfg.lockstep = true
		runThroughput(b, cfg)
	})
	b.Run("pipelined", func(b *testing.B) {
		runThroughput(b, base)
	})
}
