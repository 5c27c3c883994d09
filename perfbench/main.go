// Command perfbench is the repository benchmark: it drives the public
// facade (Engine.QueryContext with SQL over an adamant.Catalog) with one of
// three TPC-H workloads, checks every answer against an oracle that shares
// no code with the engine, and prints the end-to-end metrics (--trace 0)
// or the per-layer metrics of a separate traced run (--trace 1).
//
//	go run . --workload scan-cold --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Earlier lines carry the run context and a readable report. See README.md
// for the workloads, the metrics and the layer each one belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// setupRuns is how many set-ups a run times; setup_s is their median.
const setupRuns = 5

type config struct {
	workload workload
	seed     uint64
	seconds  float64
	trace    bool
	// setups is how many set-ups the run times (setupRuns, or fewer in
	// the short mode of the tests).
	setups int
	// traceDir receives the span file of a traced run ("" skips it).
	traceDir string
	// maxQueries, when positive, ends a phase after that many queries.
	maxQueries int64
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: scan-cold, scan-warm or serve-small")
		seed     = flag.Uint64("seed", 1, "seed for the generated data and every drawn query parameter")
		seconds  = flag.Float64("seconds", 30, "length of the measured phase in seconds")
		traceOn  = flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
		traceDir = flag.String("trace-dir", filepath.Join(".bench_build", "perfbench"), "directory for the traced run's span file")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && (*traceOn < 0 || *traceOn > 1) {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *traceOn)
	}
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	out, err := run(config{
		workload: w, seed: *seed, seconds: *seconds, trace: *traceOn == 1,
		setups: setupRuns, traceDir: *traceDir,
	}, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one named measurement of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the final JSON line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runContext records what a run's numbers depend on besides the code.
type runContext struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Clients    int     `json:"clients"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Lineitem   int     `json:"lineitem_rows"`
	Orders     int     `json:"orders_rows"`
	Customer   int     `json:"customer_rows"`
	GenSeconds float64 `json:"datagen_s"`
}
