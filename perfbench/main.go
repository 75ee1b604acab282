// Command perfbench is the repository benchmark. It drives one workload
// through the library's public packages in a single process, measures it
// for a fixed host-time budget, verifies every output it produces, and
// prints each metric by name and unit, ending with one JSON result line.
//
// Usage (from the repository root, normally through run.sh):
//
//	perfbench -workload scenario-all|fleet-sweep|serve-mix -seed N \
//	    -seconds S -trace 0|1 [-root DIR]
//
// With -trace 0 the run is untraced and reports the end-to-end metrics.
// With -trace 1 it reports the per-layer metrics: spans recorded in memory
// from this package around calls into each layer, plus the overhead of the
// traced run over an untraced run of the same workload. README.md lists the
// workloads, the metrics and which layer should move which metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	dur      time.Duration
	trace    bool
	// root is the repository root: the golden traces are read from it.
	root string
	// workers is the host's processor count: the farm's pool workers and the
	// server's workers.
	workers int
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(config) (*report, error){
	"scenario-all": runScenarioAll,
	"fleet-sweep":  runFleetSweep,
	"serve-mix":    runServeMix,
}

func parseArgs(argv []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: scenario-all, fleet-sweep or serve-mix")
	seed := fs.Uint64("seed", 0, "workload seed (non-zero)")
	secs := fs.Float64("seconds", 10, "host seconds to measure")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	root := fs.String("root", ".", "repository root")
	if err := fs.Parse(argv); err != nil {
		return config{}, err
	}
	if fs.NArg() != 0 {
		return config{}, fmt.Errorf("perfbench: unexpected argument %q", fs.Arg(0))
	}
	if _, ok := workloads[*name]; !ok {
		return config{}, fmt.Errorf("perfbench: unknown workload %q (want scenario-all, fleet-sweep or serve-mix)", *name)
	}
	if *seed == 0 {
		return config{}, errors.New("perfbench: -seed must be non-zero")
	}
	if !(*secs > 0) {
		return config{}, fmt.Errorf("perfbench: -seconds must be positive, got %v", *secs)
	}
	if *trace != 0 && *trace != 1 {
		return config{}, fmt.Errorf("perfbench: -trace must be 0 or 1, got %d", *trace)
	}
	return config{
		workload: *name,
		seed:     *seed,
		dur:      time.Duration(*secs * float64(time.Second)),
		trace:    *trace == 1,
		root:     *root,
		workers:  runtime.NumCPU(),
	}, nil
}

func main() {
	// One P: with more, idle Ps spin looking for work and run idle GC mark
	// workers, and how much CPU time they burn depends on what else the host
	// runs. The workloads keep their nproc pool and server workers.
	runtime.GOMAXPROCS(1)
	c, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	rep, err := workloads[c.workload](c)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout, os.Stderr, c); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is a finished workload run: operation counts, failures and the
// metrics of the run's mode (end-to-end or per-layer).
type report struct {
	attempted int
	failed    int
	failures  []string
	metrics   []metric
}

// op records the outcome of one operation; problems are the reasons it
// failed (none = success).
func (r *report) op(problems ...string) {
	r.attempted++
	if len(problems) > 0 {
		r.failed++
		r.failures = append(r.failures, problems...)
	}
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints the failures to stderr, then one line per metric, the host
// block and the JSON result line to stdout.
func (r *report) write(stdout, stderr io.Writer, c config) error {
	if r.attempted == 0 {
		return errors.New("perfbench: no operation completed")
	}
	for _, f := range r.failures {
		fmt.Fprintln(stderr, "FAIL", f)
	}
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range r.metrics {
		if !isFinite(m.value) {
			return fmt.Errorf("perfbench: metric %s is not finite (%v)", m.name, m.value)
		}
		if _, dup := res.Metrics[m.name]; dup {
			return fmt.Errorf("perfbench: metric %s reported twice", m.name)
		}
		res.Metrics[m.name] = metricValue{m.value, m.unit}
		fmt.Fprintf(stdout, "%-34s %16.6f %s\n", m.name, m.value, m.unit)
	}
	host, err := json.Marshal(hostInfo(c.root))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "host %s workload=%s seed=%d trace=%v\n", host, c.workload, c.seed, c.trace)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}
