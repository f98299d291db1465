// caraoke-reader runs one simulated reader agent: it measures a small
// synthetic street scene once per second (the §10 duty cycle) and
// uploads reports to a collector over TCP.
package main

import (
	"flag"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"time"

	"caraoke"
	"caraoke/internal/collector"
)

func main() {
	addr := flag.String("collector", "127.0.0.1:7415", "collector address")
	id := flag.Uint("id", 1, "reader id")
	cars := flag.Int("cars", 6, "transponders in the scene")
	seed := flag.Int64("seed", 1, "RNG seed")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
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
			res, err := rd.Measure(devs, 10, rng)
			if err != nil {
				log.Printf("measure: %v", err)
				continue
			}
			// Send redials a lost collector itself; an error means the
			// retry budget is spent and reports are being dropped.
			if err := up.Send(rd.Report(res, time.Now())); err != nil {
				log.Fatalf("uplink: %v; %+v", err, up.Stats())
			}
		case <-stop:
			return
		}
	}
}
