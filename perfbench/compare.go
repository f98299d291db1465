package main

import (
	"encoding/json"
	"fmt"
	"os"
	"text/tabwriter"
)

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, schema)
	}
	return &f, nil
}

// valuesOf gathers one end-to-end metric's values over a workload's
// untraced runs.
func valuesOf(runs []fileRun, workload, metric string) []float64 {
	var vs []float64
	for _, r := range runs {
		if r.Workload == workload && !r.Traced {
			if v, ok := r.Metrics[metric]; ok {
				vs = append(vs, v.Value)
			}
		}
	}
	return vs
}

// verdict judges change against base for one metric of one workload:
//
//	same        a seed-pure metric reads identically
//	ok          the change's median is no worse than the base's by more than the bound
//	regressed   it is worse by more than the bound
//	unresolved  the run-to-run spread (either side's interquartile range
//	            over the base median) exceeds the bound, so neither of the
//	            above can be said — unless every run of the change reads
//	            better than every run of the base
func verdict(s metricSpec, base, change []float64) string {
	_, bm, _ := quartiles(base)
	_, cm, _ := quartiles(change)
	worse := cm - bm // positive when the change is worse
	if s.Better == "higher" {
		worse = bm - cm
	}
	if s.SeedPure {
		switch {
		case worse == 0:
			return "same"
		case worse > 0:
			return "regressed"
		}
		return "improved"
	}
	allBetter := true
	for _, c := range change {
		for _, b := range base {
			if (s.Better == "higher" && c <= b) || (s.Better == "lower" && c >= b) {
				allBetter = false
			}
		}
	}
	if spread(base, bm) > s.Bound || spread(change, bm) > s.Bound {
		if allBetter {
			return "ok"
		}
		return "unresolved"
	}
	if worse > s.Bound*bm {
		return "regressed"
	}
	return "ok"
}

// spread is the interquartile range of xs as a share of base.
func spread(xs []float64, base float64) float64 {
	q1, _, q3 := quartiles(xs)
	return (q3 - q1) / base
}

// compareRuns prints one row per workload and end-to-end metric, every
// ratio with its base, and returns how many rows regressed or stayed
// unresolved.
func compareRuns(base, change []fileRun) (bad int) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase q1/median/q3 (n)\tchange q1/median/q3 (n)\tchange/base\tbound\tverdict")
	for _, w := range workloads {
		for _, s := range endToEnd {
			b, c := valuesOf(base, w.name, s.Name), valuesOf(change, w.name, s.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			b1, b2, b3 := quartiles(b)
			c1, c2, c3 := quartiles(c)
			v := verdict(s, b, c)
			if v == "regressed" || v == "unresolved" {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s %s\t%.5g/%.5g/%.5g (%d)\t%.5g/%.5g/%.5g (%d)\t%.4f of %.5g\t%.2f\t%s\n",
				w.name, s.Name, s.Unit, b1, b2, b3, len(b), c1, c2, c3, len(c), c2/b2, b2, s.Bound, v)
		}
	}
	tw.Flush()
	return bad
}

func compareFiles(basePath, changePath string) error {
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	change, err := readResults(changePath)
	if err != nil {
		return err
	}
	fmt.Printf("base   %s: %+v\nchange %s: %+v\n", basePath, base.Host, changePath, change.Host)
	if base.Host.NProc != change.Host.NProc || base.Host.CPUModel != change.Host.CPUModel {
		fmt.Println("warning: the two files were taken on different hosts; only seed-pure metrics compare")
	}
	if bad := compareRuns(base.Runs, change.Runs); bad > 0 {
		return fmt.Errorf("%d rows regressed or unresolved", bad)
	}
	return nil
}

// selfCheck is the benchmark's test of itself: two sets of runs of this
// one binary, interleaved so drift in the host hits both alike, must
// agree within every metric's bound, on e.seed and on e.seed+1.
func selfCheck(e *env, seconds float64, perSet int, out string) error {
	var all []fileRun
	bad := 0
	for _, seed := range []int64{e.seed, e.seed + 1} {
		se := *e
		se.seed = seed
		var sets [2][]fileRun
		for i := range workloads {
			for n := 0; n < perSet; n++ {
				for s := range sets {
					r := runUntraced(&workloads[i], &se, seconds)
					if !r.Correct {
						printRun(r)
						bad++
					}
					sets[s] = append(sets[s], r)
				}
			}
		}
		fmt.Printf("seed %d: set A against set B, %d runs each per workload\n", seed, perSet)
		bad += compareRuns(sets[0], sets[1])
		for _, w := range workloads {
			for _, s := range endToEnd {
				if s.SeedPure {
					fmt.Printf("seed %d: %s %s = %v\n", seed, w.name, s.Name, valuesOf(sets[0], w.name, s.Name)[0])
				}
			}
		}
		all = append(all, append(sets[0], sets[1]...)...)
	}
	if out != "" {
		if err := writeResults(out, seconds, all); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d rows or runs failed", bad)
	}
	return nil
}
