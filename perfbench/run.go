package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/adamant-db/adamant"
	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/storage"
	"github.com/adamant-db/adamant/internal/tpch"
	"github.com/adamant-db/adamant/internal/vec"
)

// bench holds what every phase of one run shares: the generated data and
// the oracle's answers.
type bench struct {
	cfg  config
	ds   *tpch.Dataset
	host *hostColumns
	// store is the generated catalog, for timing sql.Plan in the traced run.
	store *storage.Catalog
	// want holds the canonical-parameter answers of each shape.
	want [numShapes]uint64
}

func newBench(cfg config) (*bench, time.Duration, error) {
	start := time.Now()
	ds, err := tpch.Generate(tpch.Config{SF: cfg.workload.sf, Ratio: cfg.workload.ratio, Seed: cfg.seed})
	if err != nil {
		return nil, 0, err
	}
	ds = compact(ds)
	gen := time.Since(start)
	b := &bench{cfg: cfg, ds: ds, host: newHostColumns(ds), store: ds.Catalog()}
	for shape := 0; shape < numShapes; shape++ {
		b.want[shape] = referenceDigest(ds, shape)
		// The drawn-parameter evaluator must agree with the reference
		// implementation on the canonical parameters.
		if got := b.host.evaluate(canonical(shape)); got != b.want[shape] {
			return nil, 0, fmt.Errorf("oracle: row-at-a-time %s disagrees with tpch.Ref%s", shapeNames[shape], shapeNames[shape])
		}
	}
	return b, gen, nil
}

// compact copies every generated column into a slice of exactly its
// length. tpch.Generate grows the lineitem columns past its row estimate
// for some seeds, and the spare capacity (about 18 MB of live heap at
// SF100 × 1/512) made peak_rss_mb step with the seed, unrelated to the
// engine.
func compact(ds *tpch.Dataset) *tpch.Dataset {
	out := *ds
	for _, t := range []**storage.Table{&out.Customer, &out.Orders, &out.Lineitem} {
		c := storage.NewTable((*t).Name, (*t).Rows())
		for _, col := range (*t).Columns() {
			c.MustAddColumn(col.Name, vec.FromInt32(append([]int32(nil), col.Data.I32()...)))
		}
		*t = c
	}
	return &out
}

// instance is one set-up engine.
type instance struct {
	eng  *adamant.Engine
	cat  *adamant.Catalog
	dev  adamant.DeviceID
	tdev *timingDevice // the traced run's timing device; nil otherwise
}

// facadeCatalog wraps the generated host columns in the facade's catalog
// (no copy).
func facadeCatalog(ds *tpch.Dataset) (*adamant.Catalog, error) {
	var tables []*adamant.Table
	for _, st := range []*storage.Table{ds.Lineitem, ds.Orders, ds.Customer} {
		t := adamant.NewTable(st.Name, st.Rows())
		for _, col := range st.Columns() {
			if err := t.AddInt32(col.Name, col.Data.I32()); err != nil {
				return nil, fmt.Errorf("catalog %s.%s: %w", st.Name, col.Name, err)
			}
		}
		tables = append(tables, t)
	}
	return adamant.NewCatalog(tables...), nil
}

// setup builds an engine, its catalog and device, and runs the warm-up
// pass: every shape once with canonical parameters, answers checked. It
// returns the wall time of all of that.
func (b *bench) setup(traced bool) (*instance, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	w := b.cfg.workload
	in := &instance{eng: w.newEngine()}
	var err error
	if in.cat, err = facadeCatalog(b.ds); err != nil {
		return nil, 0, err
	}
	if traced {
		in.tdev = newTimingDevice()
		in.dev, err = in.eng.PlugMaker(func() device.Device { return in.tdev })
	} else {
		in.dev, err = in.eng.Plug(adamant.RTX2080Ti, adamant.CUDA)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("plug: %w", err)
	}
	for shape := 0; shape < numShapes; shape++ {
		res, err := in.eng.QueryContext(context.Background(), in.cat, in.dev, canonical(shape).sql(), w.queryOptions())
		if err != nil {
			return nil, 0, fmt.Errorf("warm-up %s: %w", shapeNames[shape], err)
		}
		if d, err := resultDigest(res, shape); err != nil || d != b.want[shape] {
			return nil, 0, fmt.Errorf("warm-up %s: wrong answer (%v)", shapeNames[shape], err)
		}
	}
	return in, time.Since(start), nil
}

// queryStats are the per-query execution statistics the benchmark reads
// from adamant.Stats.
type queryStats struct {
	elapsed, transfer, overhead time.Duration
	h2d, d2h, launches, peak    int64
	chunks                      int
}

func statsOf(s adamant.Stats) queryStats {
	return queryStats{
		elapsed: s.Elapsed, transfer: s.TransferTime, overhead: s.OverheadTime,
		h2d: s.H2DBytes, d2h: s.D2HBytes, launches: s.Launches, peak: s.PeakDeviceBytes, chunks: s.Chunks,
	}
}

// sample is one query of a measured phase. It is kept small: a run
// records every query, and the recording is part of the memory measured.
type sample struct {
	seq     int64
	shape   int
	lat     time.Duration
	elapsed time.Duration // Stats.Elapsed, the virtual clock
	digest  uint64
	err     error
	// detail is recorded by traced runs only.
	detail *detail
}

// phaseResult is what one measured phase produced.
type phaseResult struct {
	samples []sample
	start   time.Time
	wall    time.Duration
	// mallocs and allocBytes are runtime.MemStats deltas over the phase.
	mallocs, allocBytes uint64
	// residentMB samples the Go runtime's physically backed memory during
	// the phase.
	residentMB []float64
	cache      adamant.CacheStats
	admission  adamant.AdmissionStats
	device     deviceTotals
}

// params returns query i's parameters. One client takes the shapes in
// strict round-robin order. With more clients each block of four queries
// holds every shape once in a shuffled order: in strict order the clients
// lock into whichever pairing of concurrent shapes the first queries fell
// into, and per-shape latencies shift with that pairing from run to run.
func (b *bench) params(i int64) params {
	shape := int(i % numShapes)
	if b.cfg.workload.clients > 1 {
		shape = blockOrder(i / numShapes)[shape]
	}
	if b.cfg.workload.drawn {
		return drawParams(b.cfg.seed, i, shape)
	}
	return canonical(shape)
}

// phase runs the closed loop: every client submits its next query as soon
// as the previous one returns, until the phase has lasted d. Queries are
// numbered globally, so the shape mix is round-robin over all clients.
func (b *bench) phase(in *instance, d time.Duration) (*phaseResult, error) {
	w := b.cfg.workload
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		perCli  = make([][][]sample, w.clients)
		cacheA  = in.eng.CacheStats()
		admitA  = in.eng.AdmissionStats()
		devA    deviceTotals
		memA    runtime.MemStats
		memB    runtime.MemStats
		tracing = in.tdev != nil
		stop    = make(chan struct{})
		sampler sync.WaitGroup
		errOnce sync.Once
		runErr  error
	)
	setErr := func(err error) { errOnce.Do(func() { runErr = err }) }
	if tracing {
		devA = in.tdev.totals()
	}
	runtime.GC()
	runtime.ReadMemStats(&memA)
	start := time.Now()
	var resident []float64
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		resident = sampleResident(stop)
	}()
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			opts := w.queryOptions()
			for time.Since(start) < d {
				s := sample{seq: next.Add(1) - 1}
				if b.cfg.maxQueries > 0 && s.seq >= b.cfg.maxQueries {
					return
				}
				p := b.params(s.seq)
				s.shape = p.shape
				text := p.sql()
				var dt *detail
				if b.cfg.trace {
					dt = &detail{client: c}
					s.detail = dt
				}
				if tracing {
					b.traceFrontEnd(text, in.dev, dt)
					dt.rec = adamant.NewTraceRecorder()
					opts.Recorder = dt.rec
					if w.clients == 1 {
						dt.before = in.tdev.totals()
					}
				}
				t0 := time.Now()
				res, err := in.eng.QueryContext(context.Background(), in.cat, in.dev, text, opts)
				s.lat = time.Since(t0)
				if tracing && w.clients == 1 {
					dt.after = in.tdev.totals()
				}
				if err != nil {
					s.err = err
				} else {
					st := res.Stats()
					s.elapsed = st.Elapsed
					if dt != nil {
						dt.stats, dt.start = statsOf(st), t0.Sub(start)
					}
					s.digest, s.err = resultDigest(res, s.shape)
				}
				if tracing {
					if err := dt.foldSpans(); err != nil {
						setErr(err)
						return
					}
				}
				perCli[c] = appendSample(perCli[c], s)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	close(stop)
	sampler.Wait()
	if runErr != nil {
		return nil, runErr
	}
	pr := &phaseResult{start: start, wall: wall, residentMB: resident}
	runtime.ReadMemStats(&memB)
	pr.mallocs = memB.Mallocs - memA.Mallocs
	pr.allocBytes = memB.TotalAlloc - memA.TotalAlloc
	pr.cache = cacheDelta(in.eng.CacheStats(), cacheA)
	admitB := in.eng.AdmissionStats()
	pr.admission = adamant.AdmissionStats{
		Admitted: admitB.Admitted - admitA.Admitted,
		Waited:   admitB.Waited - admitA.Waited,
	}
	if tracing {
		pr.device = in.tdev.totals().sub(devA)
	}
	for _, blocks := range perCli {
		for _, ss := range blocks {
			pr.samples = append(pr.samples, ss...)
		}
	}
	sort.Slice(pr.samples, func(i, j int) bool { return pr.samples[i].seq < pr.samples[j].seq })
	if len(pr.samples) < numShapes {
		return nil, fmt.Errorf("phase of %v completed %d queries, fewer than one of each shape", d, len(pr.samples))
	}
	return pr, nil
}

// sampleBlock is the capacity of one block of recorded samples. Blocks
// are never copied to grow, so recording does not inflate the peak RSS
// the phase measures.
const sampleBlock = 4096

func appendSample(blocks [][]sample, s sample) [][]sample {
	if n := len(blocks); n == 0 || len(blocks[n-1]) == sampleBlock {
		blocks = append(blocks, make([]sample, 0, sampleBlock))
	}
	last := &blocks[len(blocks)-1]
	*last = append(*last, s)
	return blocks
}

func cacheDelta(b, a adamant.CacheStats) adamant.CacheStats {
	return adamant.CacheStats{
		Hits: b.Hits - a.Hits, Misses: b.Misses - a.Misses, SharedJoins: b.SharedJoins - a.SharedJoins,
		Evictions: b.Evictions - a.Evictions, LoadedBytes: b.LoadedBytes - a.LoadedBytes,
	}
}

// check compares every answer with the oracle and returns how many
// queries failed (error or wrong answer), reporting the first few.
func (b *bench) check(samples []sample, log io.Writer) int {
	memo := map[params]uint64{}
	failed, shown := 0, 0
	for i := range samples {
		s := &samples[i]
		err := s.err
		p := b.params(s.seq)
		if err == nil {
			want := b.want[s.shape]
			if b.cfg.workload.drawn {
				var ok bool
				if want, ok = memo[p]; !ok {
					want = b.host.evaluate(p)
					memo[p] = want
				}
			}
			if s.digest != want {
				err = errors.New("answer differs from the oracle")
			}
		}
		if err != nil {
			failed++
			if shown < 5 {
				shown++
				fmt.Fprintf(log, "# FAIL query %d (%s): %v\n#   %s\n", s.seq, shapeNames[s.shape], err, p.sql())
			}
		}
	}
	return failed
}

// balanced returns the first m samples of every shape, m being the count
// of the rarest shape, so mix-wide percentiles weigh the four shapes
// equally however the phase ended.
func balanced(samples []sample) []sample {
	var byShape [numShapes][]sample
	for _, s := range samples {
		byShape[s.shape] = append(byShape[s.shape], s)
	}
	m := len(byShape[0])
	for _, ss := range byShape[1:] {
		m = min(m, len(ss))
	}
	var out []sample
	for _, ss := range byShape {
		out = append(out, ss[:m]...)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// run executes one benchmark run and returns its final JSON line. The
// report lines go to log.
func run(cfg config, log io.Writer) (*output, error) {
	b, gen, err := newBench(cfg)
	if err != nil {
		return nil, err
	}
	writeJSONLine(log, "context", runContext{
		Workload: cfg.workload.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Clients: cfg.workload.clients, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(),
		Lineitem:  b.ds.Lineitem.Rows(), Orders: b.ds.Orders.Rows(), Customer: b.ds.Customer.Rows(),
		GenSeconds: gen.Seconds(),
	})
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		return b.tracedRun(d, log)
	}

	var in *instance
	setups := make([]float64, cfg.setups)
	for i := range setups {
		in = nil // only the last set-up is kept; let the others go first
		var took time.Duration
		if in, took, err = b.setup(false); err != nil {
			return nil, err
		}
		setups[i] = took.Seconds()
	}
	pr, err := b.phase(in, d)
	if err != nil {
		return nil, err
	}
	failed := b.check(pr.samples, log)
	out := &output{
		Correct:   failed == 0,
		Attempted: len(pr.samples),
		Failed:    failed,
		Metrics:   b.endToEnd(pr, failed, median(setups)),
	}
	writeReport(log, out.Metrics, map[string]any{
		"setup_s_runs":       setups,
		"per_shape_samples":  shapeCounts(pr.samples),
		"error_ratio":        float64(failed) / float64(len(pr.samples)),
		"phase_wall_s":       pr.wall.Seconds(),
		"cache_hit_ratio":    pr.cache.HitRatio(),
		"admission_waited":   pr.admission.Waited,
		"admission_admitted": pr.admission.Admitted,
	})
	return out, nil
}

func shapeCounts(samples []sample) map[string]int {
	out := map[string]int{}
	for _, s := range samples {
		out[shapeNames[s.shape]]++
	}
	return out
}

// endToEnd computes the end-to-end metrics of an untraced phase.
func (b *bench) endToEnd(pr *phaseResult, failed int, setupS float64) map[string]metric {
	n := len(pr.samples)
	good := n - failed
	mix := balanced(pr.samples)
	lat := sortedValues(mix, func(s *sample) float64 { return ms(s.lat) })
	dev := sortedValues(mix, func(s *sample) float64 { return ms(s.elapsed) })
	m := map[string]metric{
		"setup_s":            {setupS, "s"},
		"throughput_qps":     {float64(good) / pr.wall.Seconds(), "1/s"},
		"latency_p50_ms":     {midMean(lat), "ms"},
		"latency_p95_ms":     {quantile(lat, 0.95), "ms"},
		"device_ms_p50":      {midMean(dev), "ms"},
		"success_ratio":      {float64(good) / float64(n), "ratio"},
		"allocs_per_query":   {float64(pr.mallocs) / float64(n), "count"},
		"alloc_mb_per_query": {float64(pr.allocBytes) / 1e6 / float64(n), "MB"},
		"peak_rss_mb":        {quantile(sortFloats(pr.residentMB), 0.99), "MB"},
	}
	for shape := 0; shape < numShapes; shape++ {
		var ss []sample
		for _, s := range pr.samples {
			if s.shape == shape {
				ss = append(ss, s)
			}
		}
		xs := sortedValues(ss, func(s *sample) float64 { return ms(s.lat) })
		m[shapeNames[shape]+"_p50_ms"] = metric{quantile(xs, 0.5), "ms"}
	}
	return m
}
