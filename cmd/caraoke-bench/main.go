// caraoke-bench regenerates every table and figure of the paper's
// evaluation (§12) and prints paper-vs-measured tables. Use -runs to
// trade Monte-Carlo depth for time (the paper used up to 1000 runs per
// point).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"caraoke/internal/experiments"
)

func main() {
	var names []string
	for _, e := range experiments.All {
		names = append(names, e.Name)
	}
	runs := flag.Int("runs", 10, "Monte-Carlo runs per data point")
	seed := flag.Int64("seed", 1, "base RNG seed")
	only := flag.String("only", "", "run a single experiment ("+strings.Join(names, ", ")+")")
	flag.Parse()

	todo := experiments.All
	if *only != "" {
		todo = nil
		for _, e := range experiments.All {
			if e.Name == *only {
				todo = []experiments.Experiment{e}
			}
		}
		if todo == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (have %s)\n", *only, strings.Join(names, ", "))
			os.Exit(2)
		}
	}
	for _, e := range todo {
		t, err := e.Run(*seed, *runs)
		if err != nil {
			log.Fatalf("%s: %v", e.Name, err)
		}
		fmt.Println(t.Render())
	}
}
