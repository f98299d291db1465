// Command perfbench is the one harness Caraoke's speed is measured with.
// It runs five workloads against the repository's packages from outside
// — generated inputs in, checked outputs back — and reports end-to-end
// metrics from an untraced run and per-layer metrics from a separate
// traced run. BENCHMARK.json at the repository root names it; see
// README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the object a contract run prints as its last line.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fileRun is one run as a result file records it.
type fileRun struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Traced   bool     `json:"traced"`
	Problems []string `json:"problems,omitempty"`
	runResult
}

// resultFile is the one schema every saved measurement uses.
type resultFile struct {
	Schema  string    `json:"schema"`
	Host    hostInfo  `json:"host"`
	Seconds float64   `json:"seconds"`
	Runs    []fileRun `json:"runs"`
}

const schema = "caraoke-perfbench/1"

// procs is GOMAXPROCS for every run, and how many generator goroutines
// (with one connection each) a workload uses.
const procs = 1

// finite maps a value JSON cannot carry (a median over no samples) to 0;
// the run that produced it has already recorded why.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func collect(specs []metricSpec, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		out[s.Name] = metricValue{finite(values[s.Name]), s.Unit}
	}
	return out
}

// runUntraced measures a workload's end-to-end metrics: set-up repeated
// for its median, then seconds of measuring with spans off.
func runUntraced(w *workload, e *env, seconds float64) fileRun {
	run := fileRun{Workload: w.name, Seed: e.seed}
	p, setupS, err := prepareTimed(w, e)
	if err != nil {
		run.Problems = []string{err.Error()}
		run.runResult = runResult{Attempted: 1, Failed: 1, Metrics: collect(endToEnd, nil)}
		return run
	}
	defer p.close()
	runtime.GC()
	o := p.measure(nil, time.Duration(seconds*float64(time.Second)))
	run.Problems = o.problems
	run.runResult = runResult{
		Correct:   len(o.problems) == 0 && o.failed == 0,
		Attempted: max(o.attempted, 1),
		Failed:    o.failed,
		Metrics: collect(endToEnd, map[string]float64{
			"ops_per_s":       o.opsPerS,
			"op_ms":           o.opMs,
			"recovered_share": o.recoveredShare,
			"setup_s":         setupS,
		}),
	}
	return run
}

// runTraced measures the per-layer metrics: the workload once with spans
// off and once with spans on (a quarter of seconds each — their ratio is
// the tracing overhead, the spans give each layer's share), then the
// layer probes. The tracer is returned for -trace FILE.
func runTraced(w *workload, e *env, seconds float64) (fileRun, *tracer) {
	run := fileRun{Workload: w.name, Seed: e.seed, Traced: true}
	fail := func(err error) (fileRun, *tracer) {
		run.Problems = append(run.Problems, err.Error())
		run.runResult = runResult{Attempted: 1, Failed: 1, Metrics: collect(perLayer, nil)}
		return run, nil
	}
	p, err := w.prepare(e)
	if err != nil {
		return fail(fmt.Errorf("%s set-up: %w", w.name, err))
	}
	measure := p.measure
	if p.traced != nil {
		measure = p.traced
	}
	part := time.Duration(seconds / 4 * float64(time.Second))
	plain := measure(nil, part)
	tr := newTracer()
	traced := measure(tr, part)
	p.close()

	values, err := probeLayers(e, time.Duration(seconds/100*float64(time.Second)))
	if err != nil {
		return fail(err)
	}
	sum := tr.summarize()
	var self time.Duration
	for _, layer := range traceLayers {
		values[layer+".share"] = float64(sum.Self[layer]) / float64(sum.Wall)
		self += sum.Self[layer]
	}
	values["trace.coverage"] = float64(self) / float64(sum.Wall)
	values["trace.overhead_share"] = plain.opsPerS/traced.opsPerS - 1

	run.Problems = append(plain.problems, traced.problems...)
	run.runResult = runResult{
		Correct:   len(run.Problems) == 0 && plain.failed+traced.failed == 0,
		Attempted: max(plain.attempted+traced.attempted, 1),
		Failed:    plain.failed + traced.failed,
		Metrics:   collect(perLayer, values),
	}
	return run, tr
}

func printRun(run fileRun) {
	specs := endToEnd
	if run.Traced {
		specs = perLayer
	} else if w, ok := findWorkload(run.Workload); ok {
		fmt.Printf("%-14s operation: %s\n", run.Workload, w.op)
	}
	for _, s := range specs {
		v := run.Metrics[s.Name]
		fmt.Printf("%-14s %-34s %14.6g %s\n", run.Workload, s.Name, v.Value, v.Unit)
	}
	fmt.Printf("%-14s attempted %d failed %d correct %v\n", run.Workload, run.Attempted, run.Failed, run.Correct)
	for _, p := range run.Problems {
		fmt.Fprintf(os.Stderr, "%s: check failed: %s\n", run.Workload, p)
	}
}

func writeResults(path string, seconds float64, runs []fileRun) error {
	b, err := json.MarshalIndent(resultFile{Schema: schema, Host: readHost(), Seconds: seconds, Runs: runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// options are the command line.
type options struct {
	workload  string
	all       bool
	seed      int64
	seconds   float64
	trace     string
	out       string
	compare   bool
	selfcheck bool
	perSet    int
	manifest  bool
	args      []string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print its result object as the last line")
	flag.BoolVar(&o.all, "all", false, "run every workload, untraced then traced")
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "seconds one run measures")
	flag.StringVar(&o.trace, "trace", "0", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; FILE: traced run, spans written to FILE as JSON")
	flag.StringVar(&o.out, "out", "", "write the runs to this result file")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare A.json B.json")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run two interleaved sets of runs on -seed and -seed+1 and require them to agree within every bound")
	flag.IntVar(&o.perSet, "runs", 3, "with -selfcheck: runs per set, workload and seed")
	flag.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json as the metric tables define it")
	flag.Parse()
	o.args = flag.Args()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.manifest {
		b, err := manifest()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	}
	if o.compare {
		if len(o.args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(o.args[0], o.args[1])
	}
	// Everything runs on one processor, generators and the program under
	// test alike: each core of the reference host changes speed on its
	// own, and work spread over two is as fast as the slower of them lets
	// it be, which no stretch of a run escapes.
	runtime.GOMAXPROCS(procs)
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds %g must be positive", o.seconds)
	}
	e := &env{seed: o.seed, sz: defaultSizes, procs: procs}
	if o.selfcheck {
		return selfCheck(e, o.seconds, o.perSet, o.out)
	}

	var runs []fileRun
	switch {
	case o.all:
		for i := range workloads {
			r := runUntraced(&workloads[i], e, o.seconds)
			printRun(r)
			t, _ := runTraced(&workloads[i], e, o.seconds)
			printRun(t)
			runs = append(runs, r, t)
		}
	case o.workload != "":
		w, ok := findWorkload(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		var r fileRun
		if o.trace == "0" {
			r = runUntraced(w, e, o.seconds)
		} else {
			var tr *tracer
			r, tr = runTraced(w, e, o.seconds)
			if o.trace != "1" && tr != nil {
				if err := tr.write(o.trace); err != nil {
					return err
				}
			}
		}
		printRun(r)
		runs = append(runs, r)
		line, err := json.Marshal(r.runResult)
		if err != nil {
			return err
		}
		// The contract: the result object is the last line of standard
		// output, whatever else this function still prints or returns.
		defer fmt.Println(string(line))
	default:
		return fmt.Errorf("give -workload NAME, -all, -compare, -selfcheck or -manifest")
	}
	if o.out != "" {
		if err := writeResults(o.out, o.seconds, runs); err != nil {
			return err
		}
	}
	for _, r := range runs {
		if !r.Correct {
			return fmt.Errorf("%s: output checks failed", r.Workload)
		}
	}
	return nil
}
