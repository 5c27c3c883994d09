package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/adamant-db/adamant/internal/kernels"
)

// benchSpec is the part of ../BENCHMARK.json the tests check the output
// against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c benchSpec
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// shortConfig is a short mode of a workload: one set-up, a phase of about
// a second.
func shortConfig(t *testing.T, name string, seed uint64, trace bool) config {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return config{workload: w, seed: seed, seconds: 1, trace: trace, setups: 1, traceDir: t.TempDir()}
}

// TestShortRunsPrintEveryMetric runs a short mode of every workload, untraced
// and traced, and checks that the final line carries exactly the metrics
// BENCHMARK.json names, each with its unit, that the report lines print
// them too, and that every answer was right.
func TestShortRunsPrintEveryMetric(t *testing.T) {
	c := loadSpec(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for _, cw := range c.Workloads {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			for _, m := range c.EndToEnd {
				want[m.Name] = m.Unit
			}
			if trace {
				want = map[string]string{}
				for _, m := range c.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			t.Run(fmt.Sprintf("%s/trace=%v", cw.Name, trace), func(t *testing.T) {
				var log bytes.Buffer
				out, err := run(shortConfig(t, cw.Name, 1, trace), &log)
				if err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < numShapes {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", out.Correct, out.Attempted, out.Failed, log.String())
				}
				got := map[string]string{}
				for name, m := range out.Metrics {
					got[name] = m.Unit
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("metrics and units\n got %v\nwant %v", got, want)
				}
				printed := map[string]string{}
				for _, line := range strings.Split(log.String(), "\n") {
					if f := strings.Fields(line); len(f) == 4 && f[0] == "#" {
						printed[f[1]] = f[3]
					}
				}
				for name, unit := range want {
					if printed[name] != unit {
						t.Errorf("report prints %s with unit %q, want %q", name, printed[name], unit)
					}
				}
				if !strings.Contains(log.String(), `"seed":1`) || !strings.Contains(log.String(), `"gomaxprocs"`) {
					t.Errorf("report lacks the run context:\n%s", log.String())
				}
			})
		}
	}
}

// exactCounts runs eight scan-cold queries (two rounds of the mix) after
// set-up and returns what must repeat exactly with one client.
func exactCounts(t *testing.T) (perQuery []queryStats, pool [4]uint64, deviceP50 float64) {
	t.Helper()
	cfg := shortConfig(t, "scan-cold", 7, false)
	cfg.maxQueries = 8
	cfg.trace = true // record every query's full statistics
	b, _, err := newBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := b.setup(false)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := b.phase(in, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if failed := b.check(pr.samples, os.Stderr); failed != 0 || len(pr.samples) != 8 {
		t.Fatalf("%d queries, %d failed", len(pr.samples), failed)
	}
	for _, s := range pr.samples {
		perQuery = append(perQuery, s.detail.stats)
	}
	pool = [4]uint64{pr.cache.Hits, pr.cache.Misses, pr.cache.Evictions, uint64(pr.cache.LoadedBytes)}
	deviceP50 = b.endToEnd(pr, 0, 0)["device_ms_p50"].Value
	return perQuery, pool, deviceP50
}

// TestScanColdCountsRepeat checks that two scan-cold runs of the same seed
// report the same launches, bytes, pool counters and device_ms_p50: with
// one client the engine and its virtual clock are deterministic, which is
// what makes these counts comparable between commits.
func TestScanColdCountsRepeat(t *testing.T) {
	q1, p1, d1 := exactCounts(t)
	q2, p2, d2 := exactCounts(t)
	for i := range q1 {
		a, b := q1[i], q2[i]
		if a.launches != b.launches || a.chunks != b.chunks || a.h2d != b.h2d || a.d2h != b.d2h || a.elapsed != b.elapsed {
			t.Errorf("query %d: %+v vs %+v", i, a, b)
		}
	}
	if p1 != p2 {
		t.Errorf("pool hits/misses/evictions/loaded bytes: %v vs %v", p1, p2)
	}
	if p1[1] == 0 || p1[2] == 0 {
		t.Errorf("scan-cold pool saw no misses or evictions: %v", p1)
	}
	if d1 != d2 {
		t.Errorf("device_ms_p50: %v vs %v", d1, d2)
	}
}

// TestSecondSeed checks that the seed changes the generated data and
// serve-small's drawn parameters, and that a run on another seed still
// answers every query right.
func TestSecondSeed(t *testing.T) {
	b1, _, err := newBench(shortConfig(t, "serve-small", 1, false))
	if err != nil {
		t.Fatal(err)
	}
	b2, _, err := newBench(shortConfig(t, "serve-small", 2, false))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(b1.host.lShip, b2.host.lShip) {
		t.Error("seeds 1 and 2 generated the same l_shipdate column")
	}
	same := 0
	for i := int64(0); i < 64; i++ {
		if b1.params(i) == b2.params(i) {
			same++
		}
	}
	if same > 4 {
		t.Errorf("%d of 64 drawn parameter sets are the same under seeds 1 and 2", same)
	}
	var log bytes.Buffer
	out, err := run(shortConfig(t, "serve-small", 2, false), &log)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Failed != 0 {
		t.Fatalf("seed 2: correct=%v failed=%d\n%s", out.Correct, out.Failed, log.String())
	}
}

// TestKernelFamilies checks that every built-in kernel lands in a named
// family, so kernels.host_ms.<family> accounts for all kernel time.
func TestKernelFamilies(t *testing.T) {
	for _, name := range kernels.NewRegistry().Names() {
		if f := families[family(name)].name; f == "other" && name != "fill_i64" {
			t.Errorf("kernel %s falls into family other", name)
		}
	}
}

// TestQuantile checks the Harrell–Davis estimator on cases with known
// answers: the regularized incomplete beta function at closed forms, the
// symmetric median, and a point mass.
func TestQuantile(t *testing.T) {
	near := func(got, want, tol float64) bool { return got > want-tol && got < want+tol }
	for _, c := range []struct{ a, b, x, want float64 }{
		{1, 1, 0.3, 0.3}, {2, 1, 0.5, 0.25}, {7.5, 7.5, 0.5, 0.5}, {1, 3, 0.5, 0.875},
	} {
		if got := betaInc(c.a, c.b, c.x); !near(got, c.want, 1e-12) {
			t.Errorf("I_%v(%v, %v) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
	for _, n := range []int{2, 5, 100, 1001, 50000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if got, want := quantile(xs, 0.5), float64(n-1)/2; !near(got, want, 1e-6*float64(n)) {
			t.Errorf("median of 0..%d = %v, want %v", n-1, got, want)
		}
		if got := quantile(xs, 0.95); !near(got, 0.95*float64(n-1), 0.05*float64(n)+1) {
			t.Errorf("p95 of 0..%d = %v", n-1, got)
		}
	}
	if got := quantile([]float64{4, 4, 4, 4}, 0.95); !near(got, 4, 1e-12) {
		t.Errorf("p95 of a point mass = %v, want 4", got)
	}
	// Four separated clusters of 100: the central fifth is the top 40 of
	// the second cluster and the bottom 40 of the third.
	var mix []float64
	for c := 0; c < 4; c++ {
		for i := 0; i < 100; i++ {
			mix = append(mix, float64(100*c+i))
		}
	}
	if got, want := midMean(mix), (179.5+219.5)/2; !near(got, want, 1e-9) {
		t.Errorf("midMean of four clusters = %v, want %v", got, want)
	}
}
