// caraoke-reader runs one simulated reader agent: once per second (the
// §10 duty cycle) it runs a reader epoch on a small synthetic street
// scene — the ten-query window, the §5 count and the §8 id decode — and
// uploads the report to a collector over TCP.
package main

import (
	"flag"
	"log"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"time"

	"caraoke"
	"caraoke/internal/collector"
	"caraoke/internal/reader"
)

func main() {
	addr := flag.String("collector", "127.0.0.1:7415", "collector address")
	id := flag.Uint("id", 1, "reader id")
	cars := flag.Int("cars", 6, "transponders in the scene")
	seed := flag.Int64("seed", 1, "RNG seed")
	flag.Parse()
	if *id > math.MaxUint32 {
		log.Fatalf("caraoke-reader: -id %d does not fit a 32-bit reader id", *id)
	}
	if *cars < 0 {
		log.Fatalf("caraoke-reader: -cars %d must not be negative", *cars)
	}

	// Counting and decoding draw from separate streams, as a city
	// reader's do, so decoding never moves a count.
	rng := rand.New(rand.NewSource(*seed))
	decodeRNG := rand.New(rand.NewSource(*seed ^ int64(*id)*0x2545F4914F6CDD1D))
	rd, err := caraoke.NewReader(caraoke.ReaderConfig{
		ID: uint32(*id), PoleBase: caraoke.V(0, -5, 0), PoleHeight: 3.8,
		RoadDir: caraoke.V(1, 0, 0), TiltDeg: 60, NoiseSigma: 2e-6})
	if err != nil {
		log.Fatal(err)
	}
	devs := caraoke.NewTransponders(*cars, *seed)
	for i, d := range devs {
		d.Pos = caraoke.V(6+4*float64(i), -2+float64(i%3), 0)
	}

	up, err := collector.Dial(*addr, 5*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer up.Close()
	log.Printf("reader %d uplinked to %s", *id, *addr)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			rep, err := rd.Epoch(devs, time.Now(), reader.DecodeBudget, rng, decodeRNG)
			if err != nil {
				log.Printf("epoch: %v", err)
				continue
			}
			// Send redials a lost collector itself; an error means the
			// retry budget is spent and reports are being dropped.
			if err := up.Send(rep); err != nil {
				log.Fatalf("uplink: %v; %+v", err, up.Stats())
			}
		case <-stop:
			return
		}
	}
}
