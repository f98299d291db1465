// Traffic monitoring at a signalized intersection (§12.1, Fig 12): a
// reader at the light counts transponders every second and streams
// reports to a city collector over real TCP; the collector's count
// series shows the queue building during red and clearing on green.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"caraoke"
	"caraoke/internal/collector"
	"caraoke/internal/traffic"
)

func main() {
	rng := rand.New(rand.NewSource(3))

	// City backend.
	store := collector.NewStore(4096)
	srv := collector.NewServer(store)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Stop()

	// A reader on the busy street's light pole, uplinked to the
	// collector.
	rd, err := caraoke.NewReader(caraoke.ReaderConfig{
		ID: 7, PoleBase: caraoke.V(2, -5, 0), PoleHeight: 3.8,
		RoadDir: caraoke.V(0, 1, 0), TiltDeg: 60, NoiseSigma: 2e-6})
	if err != nil {
		log.Fatal(err)
	}
	up, err := collector.Dial(addr.String(), time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer up.Close()

	// The intersection: street C ten times busier than A, green 3×.
	cfg := traffic.DefaultIntersectionConfig()
	ix, err := traffic.NewIntersection(cfg, rng)
	if err != nil {
		log.Fatal(err)
	}

	base := time.Date(2015, 8, 17, 8, 0, 0, 0, time.UTC)
	fmt.Println("t(s)  light  true  counted")
	warm := cfg.Timing.Cycle()
	span := warm + 2*cfg.Timing.Cycle()
	next := warm
	var sent uint32 // Seq of the last report uplinked
	for ix.Now() < span {
		ix.Step(100 * time.Millisecond)
		if ix.Now() < next {
			continue
		}
		next += time.Second
		devs := ix.DevicesNear(1, 30)
		truth := len(devs)
		rep, err := rd.Epoch(devs, base.Add(ix.Now()), 0, rng, nil) // budget 0: count only
		if err != nil {
			log.Fatal(err)
		}
		if err := up.Send(rep); err != nil {
			log.Fatal(err)
		}
		sent = rep.Seq
		_, pC := cfg.Timing.PhaseAt(ix.Now())
		fmt.Printf("%4.0f  %-6s %4d  %7d\n", (ix.Now() - warm).Seconds(), pC, truth, rep.Count)
	}

	// Once the last report is ingested, read the series back from the
	// collector like a city dashboard would.
	if err := store.WaitHighWater(map[uint32]uint32{7: sent}, 5*time.Second); err != nil {
		log.Fatal(err)
	}
	ts, counts := store.CountSeries(7, base, base.Add(span))
	peak, total := 0, 0
	for _, c := range counts {
		if c > peak {
			peak = c
		}
		total += c
	}
	fmt.Printf("\ncollector ingested %d reports; peak queue %d cars\n", len(ts), peak)
}
