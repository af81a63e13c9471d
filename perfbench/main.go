// Command perfbench is the repository benchmark. It runs one workload for
// a fixed wall-clock budget, checks the workload's outputs against an
// in-process reference, and prints one JSON result line:
//
//	go run . --workload dse-paper --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// untraced; with --trace 1 a separate traced run records spans around the
// calls into each layer and the result carries the per-layer metrics.
// BENCHMARK.json at the repository root lists the workloads and metrics;
// README.md in this directory documents what each one measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one benchmark workload: a runner for the untimed-then-timed
// end-to-end run and one for the traced per-layer run.
type workload struct {
	name   string
	run    func(cfg runConfig) (*outcome, error)
	traced func(cfg runConfig) (*outcome, error)
}

var workloads = []workload{
	{"dse-paper", runDSE, traceDSE},
	{"grid-warm", runGrid, traceGrid},
	{"serve-live", runLive, traceLive},
	{"serve-tcp", runTCP, traceTCP},
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds float64
	// traceOut is where a traced run writes its spans, relative to the
	// repository root the benchmark runs from.
	traceOut string
}

// deadline returns the wall-clock end of the measured window that starts
// now.
func (c runConfig) deadline() time.Time {
	return time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
}

// outcome is a workload's verdict: whether its outputs matched the
// references, how many operations it attempted and how many failed, and
// the metrics it measured.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
}

func newOutcome() *outcome {
	return &outcome{correct: true, metrics: make(map[string]float64)}
}

// check records a failed output check; the run stays alive so every
// mismatch is reported, but the result is marked incorrect.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.correct = false
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: "+format+"\n", args...)
	}
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed; 1 reproduces the paper's records")
	seconds := fs.Float64("seconds", 10, "measured wall-clock seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || *seed < 1 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seed >= 1, --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := runConfig{seed: *seed, seconds: *seconds}
	runner, catalog := w.run, endToEnd
	if *trace == 1 {
		runner, catalog = w.traced, perLayer
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		cfg.traceOut = fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", w.name, *seed)
	}
	out, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res, err := render(out, catalog)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// render turns an outcome into the result line. Every metric of the
// catalog is printed: an end-to-end metric the workload did not measure
// is an error, a per-layer metric of a layer the workload bypasses reads
// zero.
func render(o *outcome, catalog []metricDef) (resultJSON, error) {
	res := resultJSON{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricJSON{}}
	if o.attempted < 1 {
		return res, fmt.Errorf("no operation attempted")
	}
	known := map[string]bool{}
	for _, d := range catalog {
		known[d.name] = true
		v, ok := o.metrics[d.name]
		if !ok && d.required {
			return res, fmt.Errorf("metric %s not measured", d.name)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	var extra []string
	for k := range o.metrics {
		if !known[k] {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return res, fmt.Errorf("metrics outside the catalog: %v", extra)
	}
	return res, nil
}
