// caraoke-collector runs the city backend: a TCP server ingesting
// reader reports and periodically printing per-reader counts.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"caraoke/internal/collector"
)

func main() {
	addr := flag.String("listen", "127.0.0.1:7415", "listen address")
	interval := flag.Duration("interval", 5*time.Second, "status print interval")
	flag.Parse()
	if *interval <= 0 {
		log.Fatalf("caraoke-collector: -interval %v must be positive", *interval)
	}

	store := collector.NewStore(8192)
	srv := collector.NewServer(store)
	bound, err := srv.Start(*addr)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Stop()
	log.Printf("collector listening on %s", bound)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			for _, id := range store.Readers() {
				if r := store.Latest(id); r != nil {
					ids := 0 // spikes the reader's §8 decode gave an id
					for _, sp := range r.Spikes {
						if sp.DecodedID != 0 {
							ids++
						}
					}
					fmt.Printf("reader %d: count=%d spikes=%d ids=%d at %s\n",
						id, r.Count, len(r.Spikes), ids, r.Timestamp.Format(time.RFC3339))
				}
			}
		case <-stop:
			log.Print("shutting down")
			return
		}
	}
}
