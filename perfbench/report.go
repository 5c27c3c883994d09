package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime/metrics"
	"sort"
	"time"
)

// writeJSONLine writes one "# <label> <json>" report line.
func writeJSONLine(w io.Writer, label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Fprintf(w, "# %s %s\n", label, b)
}

// writeReport prints the metrics as a readable table, then the extra
// details as one JSON line.
func writeReport(w io.Writer, metrics map[string]metric, details map[string]any) {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := metrics[name]
		fmt.Fprintf(w, "# %-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
	writeJSONLine(w, "details", details)
}

// residentInterval is how often sampleResident reads the runtime's memory.
const residentInterval = 10 * time.Millisecond

// sampleResident samples the memory the Go runtime holds physically backed
// (mapped minus released to the OS, the process's resident memory since
// the benchmark uses no cgo) in MB, every residentInterval until stop is
// closed.
func sampleResident(stop <-chan struct{}) []float64 {
	ms := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	tick := time.NewTicker(residentInterval)
	defer tick.Stop()
	var out []float64
	for {
		metrics.Read(ms)
		out = append(out, float64(ms[0].Value.Uint64()-ms[1].Value.Uint64())/1e6)
		select {
		case <-stop:
			return out
		case <-tick.C:
		}
	}
}
