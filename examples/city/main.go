// City runs the multi-intersection harness programmatically: a
// four-reader city, a small fleet, and the §8 decoder on every fifth
// epoch, then answers a find-my-car query straight from the collector
// state the run leaves behind. This is the library-level view of what
// cmd/caraoke-sim exposes as flags.
package main

import (
	"fmt"
	"log"
	"time"

	"caraoke/internal/city"
)

func main() {
	res, err := city.Run(city.Config{
		Readers:  4,
		Vehicles: 60,
		Duration: 15 * time.Second,
		Seed:     2015,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, ix := range res.PerIntersection {
		fmt.Printf("intersection %d: car-seconds %d, peak queue %d\n",
			ix.Index, ix.CarSeconds, ix.Peak)
	}
	fmt.Printf("decoded %d ids across the city\n", len(res.Decoded))
	if len(res.Decoded) > 0 {
		id := res.Decoded[0].ID
		if sgt, ok := res.Directory().FindCar(id); ok {
			fmt.Printf("find-my-car: %#x last seen by reader %d at %s\n",
				id, sgt.ReaderID, sgt.Seen.Format("15:04:05"))
		}
	}
}
