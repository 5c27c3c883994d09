package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"github.com/adamant-db/adamant"
	"github.com/adamant-db/adamant/internal/graph"
	"github.com/adamant-db/adamant/internal/sql"
	"github.com/adamant-db/adamant/internal/trace"
)

// detail is what a traced run records per query beyond a sample. The
// untraced phase of a traced run fills stats and start only.
type detail struct {
	stats queryStats
	// start is the submit time relative to the phase start.
	start time.Duration
	// client is the index of the client that ran the query.
	client int
	// parse, plan and fuse time the front-end calls on the query text,
	// made by the benchmark just before the query is submitted. The
	// engine repeats them inside QueryContext; these stand in for that.
	parse, plan, fuse time.Duration
	// rec is the facade trace recorder attached to the query.
	rec *adamant.TraceRecorder
	// before and after snapshot the timing device around the query. The
	// difference is the query's own only with one client.
	before, after deviceTotals
	// admit is the admission wait; kernelVirt the virtual kernel time by
	// family, both from the recorder's spans.
	admit      time.Duration
	kernelVirt []int64
}

// traceFrontEnd times the SQL front end and the fusion pass on a query's
// text. Their results are discarded: QueryContext does the same work.
func (b *bench) traceFrontEnd(text string, dev adamant.DeviceID, dt *detail) {
	t := time.Now()
	ast, err := sql.Parse(text)
	dt.parse = time.Since(t)
	if err != nil {
		return // QueryContext reports the same error
	}
	t = time.Now()
	g, err := sql.Plan(ast, sql.PlanConfig{Catalog: b.store, Device: dev})
	dt.plan = time.Since(t)
	if err != nil || !b.cfg.workload.fusion {
		return
	}
	t = time.Now()
	graph.Fuse(g)
	dt.fuse = time.Since(t)
}

// recorderSpans returns the spans a facade TraceRecorder captured. The
// facade exports them only as renderings that drop wall time (the
// admission wait), so the benchmark reads the recorder it wraps; the type
// check turns a change of the facade into an error instead of a wrong
// number.
func recorderSpans(tr *adamant.TraceRecorder) ([]trace.Span, error) {
	f := reflect.ValueOf(tr).Elem().FieldByName("rec")
	if !f.IsValid() || f.Type() != reflect.TypeOf((*trace.Recorder)(nil)) {
		return nil, fmt.Errorf("adamant.TraceRecorder no longer wraps a *trace.Recorder in field rec")
	}
	return (*trace.Recorder)(f.UnsafePointer()).Spans(), nil
}

// foldSpans fills the recorder-derived fields of a layer sample.
func (ls *detail) foldSpans() error {
	spans, err := recorderSpans(ls.rec)
	if err != nil {
		return err
	}
	ls.kernelVirt = make([]int64, len(families))
	for i := range spans {
		s := &spans[i]
		switch s.Kind {
		case trace.KindAdmission:
			ls.admit += s.Wall
		case trace.KindKernel:
			ls.kernelVirt[family(s.Label)] += int64(s.Duration())
		}
	}
	ls.rec = nil // the spans are folded; let the recorder go
	return nil
}

// tracedRun is the --trace 1 run: an untraced phase, then the same
// workload on a fresh engine whose device is the timing device, with a
// facade trace recorder on every query and the front end timed before
// each submit. Each phase lasts half of d. It prints the per-layer
// metrics, checks the traced run against the untraced one, and writes
// the spans to the trace directory.
func (b *bench) tracedRun(d time.Duration, log io.Writer) (*output, error) {
	plain, _, err := b.setup(false)
	if err != nil {
		return nil, err
	}
	pa, err := b.phase(plain, d/2)
	if err != nil {
		return nil, err
	}
	plain = nil
	traced, _, err := b.setup(true)
	if err != nil {
		return nil, err
	}
	pb, err := b.phase(traced, d/2)
	if err != nil {
		return nil, err
	}
	failed := b.check(pa.samples, log) + b.check(pb.samples, log)
	attempted := len(pa.samples) + len(pb.samples)

	metrics, shapeSelf := b.perLayer(pa, pb)
	problems := b.fidelity(pa, pb, shapeSelf)
	if self := metrics["exec.self_ms"].Value; self < 0 {
		problems = append(problems, fmt.Sprintf("exec.self_ms is %.4f < 0", self))
	}
	for _, p := range problems {
		fmt.Fprintln(log, "# FIDELITY", p)
	}
	writeReport(log, metrics, map[string]any{
		"untraced_queries":      len(pa.samples),
		"traced_queries":        len(pb.samples),
		"exec_self_ms_by_shape": shapeSelf,
		"device_spans_dropped":  traced.tdev.dropped,
	})
	if b.cfg.traceDir != "" {
		if err := writeSpans(b.cfg, pb, traced.tdev); err != nil {
			return nil, err
		}
	}
	return &output{
		Correct:   failed == 0 && len(problems) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	}, nil
}

// perLayer computes the per-layer metrics of the traced phase pb; pa is
// the untraced phase, for the tracing overhead. Times and counts are
// means per query. It also returns exec.self_ms per shape when the device
// time can be split by query (one client), else nil.
func (b *bench) perLayer(pa, pb *phaseResult) (map[string]metric, map[string]float64) {
	n := float64(len(pb.samples))
	per := func(x float64) float64 { return x / n }
	dt := pb.device

	var lat, parse, plan, fuse, admit time.Duration
	var h2d, d2h, launches, chunks int64
	var kvirt, tvirt, ovirt time.Duration
	kernelVirt := make([]int64, len(families))
	var peaks []float64
	for _, s := range pb.samples {
		ls := s.detail
		lat += s.lat
		parse += ls.parse
		plan += ls.plan
		fuse += ls.fuse
		admit += ls.admit
		h2d += ls.stats.h2d
		d2h += ls.stats.d2h
		launches += ls.stats.launches
		chunks += int64(ls.stats.chunks)
		tvirt += ls.stats.transfer
		ovirt += ls.stats.overhead
		for f, v := range ls.kernelVirt {
			kernelVirt[f] += v
			kvirt += time.Duration(v)
		}
		peaks = append(peaks, float64(ls.stats.peak)/1e6)
	}
	self := lat - parse - plan - fuse - admit - time.Duration(dt.callNs()+dt.bookNs)

	m := map[string]metric{
		"kernels.host_ms":            {per(float64(dt.ns[catKernel]) / 1e6), "ms/query"},
		"kernels.host_us_per_launch": {ratio(float64(dt.ns[catKernel])/1e3, float64(dt.calls[catKernel])), "us/launch"},
		"kernels.virtual_ms":         {per(ms(kvirt)), "ms/query"},
		"device.h2d_ms":              {per(float64(dt.ns[catH2D]) / 1e6), "ms/query"},
		"device.d2h_ms":              {per(float64(dt.ns[catD2H]) / 1e6), "ms/query"},
		"device.h2d_mb":              {per(float64(h2d) / 1e6), "MB/query"},
		"device.d2h_mb":              {per(float64(d2h) / 1e6), "MB/query"},
		"device.transfer_virtual_ms": {per(ms(tvirt)), "ms/query"},
		"device.mem_ms":              {per(float64(dt.ns[catMem]) / 1e6), "ms/query"},
		"device.calls":               {per(float64(dt.callCount())), "count/query"},
		"device.peak_mb":             {median(peaks), "MB"},
		"bufpool.hit_ratio":          {pb.cache.HitRatio(), "ratio"},
		"bufpool.evictions":          {per(float64(pb.cache.Evictions)), "count/query"},
		"bufpool.loaded_mb":          {per(float64(pb.cache.LoadedBytes) / 1e6), "MB/query"},
		"sql.parse_us":               {per(float64(parse) / 1e3), "us/query"},
		"sql.plan_us":                {per(float64(plan) / 1e3), "us/query"},
		"graph.fuse_us":              {per(float64(fuse) / 1e3), "us/query"},
		"session.admit_wait_ms":      {per(ms(admit)), "ms/query"},
		"session.queued_ratio":       {ratio(float64(pb.admission.Waited), float64(pb.admission.Admitted)), "ratio"},
		"exec.self_ms":               {per(ms(self)), "ms/query"},
		"exec.launches":              {per(float64(launches)), "count/query"},
		"exec.chunks":                {per(float64(chunks)), "count/query"},
		"exec.overhead_virtual_ms":   {per(ms(ovirt)), "ms/query"},
		"trace.overhead_pct":         {100 * (1 - throughput(pb)/throughput(pa)), "%"},
	}
	for f, fam := range families {
		m["kernels.host_ms."+fam.name] = metric{per(float64(dt.famNs[f]) / 1e6), "ms/query"}
		m["kernels.virtual_ms."+fam.name] = metric{per(float64(kernelVirt[f]) / 1e6), "ms/query"}
	}
	if b.cfg.workload.clients != 1 {
		return m, nil
	}
	// One client: the device counters' deltas around a query are its own.
	var shapeSelf [numShapes]time.Duration
	var shapeN [numShapes]int
	for _, s := range pb.samples {
		ls := s.detail
		dq := ls.after.sub(ls.before)
		shapeSelf[s.shape] += s.lat - ls.parse - ls.plan - ls.fuse - ls.admit - time.Duration(dq.callNs()+dq.bookNs)
		shapeN[s.shape]++
	}
	bySelf := map[string]float64{}
	for shape := range shapeSelf {
		bySelf[shapeNames[shape]] = ms(shapeSelf[shape]) / float64(max(shapeN[shape], 1))
	}
	return m, bySelf
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// throughput is the phase's completions per second.
func throughput(pr *phaseResult) float64 {
	return float64(len(pr.samples)) / pr.wall.Seconds()
}

// fidelity checks the traced phase against the untraced one. With one
// client the engine is deterministic, so query k of both phases must
// report the same launches, chunks, bytes moved and virtual time; and no
// shape may have negative executor self time.
func (b *bench) fidelity(pa, pb *phaseResult, shapeSelf map[string]float64) []string {
	var problems []string
	for name, v := range shapeSelf {
		if v < 0 {
			problems = append(problems, fmt.Sprintf("exec.self_ms of %s is %.4f < 0", name, v))
		}
	}
	if b.cfg.workload.clients != 1 {
		return problems
	}
	n := min(len(pa.samples), len(pb.samples))
	for i := 0; i < n; i++ {
		a, t := pa.samples[i].detail.stats, pb.samples[i].detail.stats
		if a.launches != t.launches || a.chunks != t.chunks || a.h2d != t.h2d || a.d2h != t.d2h || a.elapsed != t.elapsed {
			problems = append(problems, fmt.Sprintf("query %d (%s): untraced %+v, traced %+v",
				i, shapeNames[pa.samples[i].shape], a, t))
			break
		}
	}
	devMedian := func(ss []sample) float64 {
		return midMean(sortedValues(balanced(ss), func(s *sample) float64 { return ms(s.elapsed) }))
	}
	if a, t := devMedian(pa.samples[:n]), devMedian(pb.samples[:n]); a != t {
		problems = append(problems, fmt.Sprintf("device_ms_p50 over %d queries: untraced %v, traced %v", n, a, t))
	}
	return problems
}

// chromeEvent is one complete event of the Chrome trace_event format.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// deviceTrack is the Chrome track of the timed device calls; client c's
// queries are on track c+1.
const deviceTrack = 100

// writeSpans writes the traced phase's spans as Chrome trace JSON: a track
// per client with its queries and their front-end spans (the admission
// wait is an argument of the query), and a track with the timed device
// calls. Times are wall microseconds from the phase start.
func writeSpans(cfg config, pb *phaseResult, td *timingDevice) error {
	var events []chromeEvent
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	for _, s := range pb.samples {
		ls := s.detail
		// The front end ran just before the submit.
		t := ls.start - ls.parse - ls.plan - ls.fuse
		for _, fe := range []struct {
			name string
			d    time.Duration
		}{{"sql.parse", ls.parse}, {"sql.plan", ls.plan}, {"graph.fuse", ls.fuse}} {
			if fe.d > 0 {
				events = append(events, chromeEvent{Name: fe.name, Cat: "frontend", Phase: "X", TS: us(t), Dur: us(fe.d), TID: ls.client + 1})
			}
			t += fe.d
		}
		events = append(events, chromeEvent{
			Name: "query " + shapeNames[s.shape], Cat: "query", Phase: "X", TS: us(ls.start), Dur: us(s.lat), TID: ls.client + 1,
			Args: map[string]any{"seq": s.seq, "virtual_ms": ms(s.elapsed), "admission_wait_us": us(ls.admit)},
		})
	}
	// Device spans are timed from the device's origin; rebase them onto
	// the phase's clock and drop the set-up's.
	offset := pb.start.Sub(td.origin)
	td.mu.Lock()
	spans := append([]deviceSpan(nil), td.spans...)
	td.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for _, s := range spans {
		if t := time.Duration(s.Start) - offset; t >= 0 {
			events = append(events, chromeEvent{Name: s.Name, Cat: catNames[s.Cat], Phase: "X", TS: us(t), Dur: us(time.Duration(s.Dur)), TID: deviceTrack})
		}
	}
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("trace-%s.json", cfg.workload.name))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
