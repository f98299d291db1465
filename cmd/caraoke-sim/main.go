// caraoke-sim is the city-scale simulation harness: a seeded grid of
// intersections, N concurrent pole-mounted readers, vehicles circling
// the street grid, and the collector backend ingesting every reader's
// telemetry over real TCP — the whole deployment of the paper's §1/§4
// in one process. Two runs with the same flags produce identical
// per-intersection counts; see internal/city for the determinism
// contract.
//
// Example:
//
//	go run ./cmd/caraoke-sim -readers 8 -vehicles 200 -seed 1
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"caraoke/internal/api"
	"caraoke/internal/city"
	"caraoke/internal/collector"
)

func main() {
	readers := flag.Int("readers", 4, "pole-mounted readers (two per intersection)")
	vehicles := flag.Int("vehicles", 80, "cars circulating on the street grid")
	parked := flag.Int("parked", 0, "stationary curbside cars near intersection 0")
	duration := flag.Duration("duration", 30*time.Second, "simulated time")
	seed := flag.Int64("seed", 1, "RNG seed; same seed ⇒ identical run")
	decodeEvery := flag.Int("decode-every", 5, "run the §8 id decoder every k-th epoch (negative disables)")
	decodeBudget := flag.Int("decode-budget", 120, "max collisions combined per decode run")
	equipped := flag.Float64("equipped", 1, "fraction of cars carrying a transponder")
	speedLimit := flag.Float64("speed-limit", 13, "speed-service limit, m/s")
	batch := flag.Int("batch", 1, "telemetry reports coalesced per uplink frame (1 = one report per frame; results identical, only framing changes)")
	partitions := flag.Int("partitions", 1, "collector partitions (1 = single collector; ≥2 spreads readers over a consistent-hash ring; query answers identical for any count)")
	killPartition := flag.Int("kill-partition", 0, "with -partitions ≥2 and -kill-at-seq: the partition the failover drill kills")
	killAtSeq := flag.Int("kill-at-seq", 0, "kill -kill-partition once an uplink frame opens past this seq; its readers rehome to the ring successor (0 = no kill)")
	serveAddr := flag.String("serve", "", "after the run, serve the HTTP query API on this address (e.g. :8080) with the clock frozen at the run's end")
	chaos := flag.Bool("chaos", false, "switch on the failure model (seeded fault injection; same seed ⇒ identical loss/recovery stats)")
	loss := flag.Float64("loss", 0.05, "with -chaos: per-frame probability an uplink frame is silently dropped")
	killInterval := flag.Int("kill-interval", 25, "with -chaos: kill each uplink connection on every k-th frame (0 never)")
	churn := flag.Float64("churn", 0.1, "with -chaos: per-reader-epoch probability of going offline for a span (parked-car RSU churn)")
	driftPPM := flag.Float64("drift-ppm", 50, "with -chaos: per-reader clock drift bound, parts per million")
	resyncEvery := flag.Int("resync-every", 10, "with -chaos: NTP-style clock resync every k-th epoch (0 never)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (any scenario; profiling does not affect results)")
	memprofile := flag.String("memprofile", "", "write a heap profile (after GC) to this file at exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Fatalf("memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatalf("memprofile: %v", err)
			}
		}()
	}

	cfg := city.Config{
		Readers:        *readers,
		Vehicles:       *vehicles,
		Parked:         *parked,
		Duration:       *duration,
		Seed:           *seed,
		DecodeEvery:    *decodeEvery,
		DecodeBudget:   *decodeBudget,
		UnequippedFrac: 1 - *equipped,
		Batch:          *batch,
		Partitions:     *partitions,
	}
	if *chaos {
		cfg.Chaos = city.Chaos{
			DropRate:    *loss,
			KillEvery:   *killInterval,
			ChurnRate:   *churn,
			DriftPPM:    *driftPPM,
			ResyncEvery: *resyncEvery,
		}
	}
	if *killAtSeq > 0 {
		cfg.Chaos.KillPartition = *killPartition
		cfg.Chaos.KillAtSeq = *killAtSeq
	}
	start := time.Now()
	res, err := city.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	wall := time.Since(start)

	fmt.Printf("city: %d readers on %d intersections, %d vehicles (+%d parked), %d epochs (%s simulated) in %.1fs wall\n",
		*readers, len(res.PerIntersection), *vehicles, *parked, res.Epochs, *duration, wall.Seconds())
	if cl := res.Cluster; cl.NumPartitions() >= 2 {
		fmt.Printf("cluster: %d partitions |", cl.NumPartitions())
		for i := 0; i < cl.NumPartitions(); i++ {
			fmt.Printf(" p%d: %d readers", i, cl.ReadersOn(i))
		}
		fmt.Println()
	}
	for _, ix := range res.PerIntersection {
		fmt.Printf("intersection %d at (%.0f,%.0f): readers %v, %d reports, car-seconds %d, peak %d\n",
			ix.Index, ix.X, ix.Y, ix.Readers, ix.Reports, ix.CarSeconds, ix.Peak)
	}

	// Chaos accounting: every number below is a pure function of the
	// flags (injection is keyed to frame order, never wall-clock), so
	// two runs with the same seed print identical stats — which is what
	// the CI chaos smoke diffs. Clean runs print nothing here.
	if res.Uplinks != nil {
		fmt.Printf("chaos: loss %.2f kill-every %d churn %.2f drift %gppm resync-every %d\n",
			*loss, *killInterval, *churn, *driftPPM, *resyncEvery)
		var tot city.UplinkStats
		for _, u := range res.Uplinks {
			fmt.Printf("uplink reader %d: delivered %d redelivered %d reconnects %d client-dropped %d | wire: %d frames lost (%d reports) %d kills | store: received %d deduped %d | churn: offline %d epochs, %d departures\n",
				u.ReaderID, u.Delivered, u.Redelivered, u.Reconnects, u.ClientDropped,
				u.FramesLost, u.ReportsLost, u.Kills, u.Received, u.Deduped, u.OfflineEpochs, u.Departures)
			tot.Delivered += u.Delivered
			tot.Redelivered += u.Redelivered
			tot.ClientDropped += u.ClientDropped
			tot.ReportsLost += u.ReportsLost
			tot.Received += u.Received
			tot.Deduped += u.Deduped
			tot.OfflineEpochs += u.OfflineEpochs
		}
		fmt.Printf("chaos totals: delivered %d redelivered %d dropped %d lost %d received %d deduped %d offline-epochs %d\n",
			tot.Delivered, tot.Redelivered, tot.ClientDropped, tot.ReportsLost, tot.Received, tot.Deduped, tot.OfflineEpochs)
	}

	// Failover accounting: like the chaos stats, everything here is a
	// pure function of the flags (the cut is keyed to report seqs), so
	// same seed ⇒ identical lines — the CI failover smoke diffs them.
	if f := res.Failover; f != nil {
		fmt.Printf("failover: kill partition %d after seq %d: happened %v, %d readers rehomed\n",
			f.Partition, *killAtSeq, f.Happened, len(f.Rehomed))
		for _, id := range f.Rehomed {
			fmt.Printf("failover reader %d: dead partition kept seqs 1..%d, successor took the rest\n",
				id, f.DeadSeqs[id])
		}
		fmt.Printf("failover totals: reconnects %d redelivered %d\n", f.Reconnects, f.Redelivered)
	}

	fmt.Printf("decoded %d transponder ids\n", len(res.Decoded))
	if len(res.Decoded) > 0 {
		d := res.Decoded[0]
		if sgt, ok := res.Directory().FindCar(d.ID); ok {
			fmt.Printf("find-my-car: id %#x last seen by reader %d at %s (CFO %.1f kHz)\n",
				d.ID, sgt.ReaderID, sgt.Seen.Format("15:04:05"), sgt.FreqHz/1e3)
		}
	}

	// Speed service over reader pairs: any decoded car sighted at two
	// poles yields a transit-time speed estimate (§7).
	svc := collector.NewSpeedService(res.Directory(), *speedLimit)
	for id, pos := range res.Poles {
		svc.RegisterReader(id, pos)
	}
	span := res.End.Sub(res.Start)
	for _, d := range res.Decoded {
		v, over, err := svc.Check(d.FreqHz, 3e3, span, res.End)
		if err != nil {
			continue // sighted at fewer than two readers
		}
		tag := ""
		if over {
			tag = "  SPEEDING"
		}
		fmt.Printf("speed: id %#x (CFO %.1f kHz) readers %d→%d: %.1f m/s%s\n",
			d.ID, d.FreqHz/1e3, v.From, v.To, v.SpeedMPS, tag)
	}

	// Parking service: decoded curbside occupants open billable
	// sessions spanning the run; -serve keeps them open.
	park := collector.NewParkingService()
	for spot, id := range res.ParkedSpots {
		if err := park.Arrive(spot, id, res.Start); err != nil {
			log.Fatal(err)
		}
	}
	for _, ses := range park.Sessions() {
		fmt.Printf("parking: spot %d held by %#x, billed %s\n", ses.Spot, ses.ID, res.End.Sub(ses.Since))
	}

	// The HTTP front end: -serve publishes the finished run's query
	// surface with the clock frozen at the run's end, so speed max-age
	// filters operate in simulated time and answers stay deterministic.
	if *serveAddr != "" {
		apiSrv := api.New(api.Config{
			Directory: res.Directory(),
			Speed:     svc,
			Parking:   park,
			Now:       func() time.Time { return res.End },
		})
		log.Printf("serving query API on %s (try /healthz, /car/{id}, /speed?freq=..., /parking)", *serveAddr)
		log.Fatal(http.ListenAndServe(*serveAddr, apiSrv))
	}
}
