package main

import (
	"fmt"
	"time"

	"github.com/adamant-db/adamant"
	"github.com/adamant-db/adamant/internal/tpch"
)

// Query shapes, in round-robin order.
const (
	shapeQ1 = iota
	shapeQ3
	shapeQ4
	shapeQ6
	numShapes
)

var shapeNames = [numShapes]string{"q1", "q3", "q4", "q6"}

// workload fixes the data size, engine settings and load of one benchmark
// workload. Every workload runs on one simulated RTX 2080 Ti driven through
// CUDA under the 4-phase pipelined model, with the engine's default
// GROUP BY sizing (GroupsHint 0).
type workload struct {
	name    string
	clients int
	// sf and ratio size the generated TPC-H data (tpch.Config).
	sf, ratio float64
	// chunkElems is ExecOptions.ChunkElems.
	chunkElems int
	fusion     bool
	poolBytes  int64
	// service arms telemetry, the profiler and an SLO, as a long-running
	// service would.
	service bool
	// drawn draws every query's parameters from the seed; otherwise each
	// shape runs with the canonical TPC-H parameters.
	drawn bool
}

const mib = 1 << 20

var workloads = []workload{
	{
		name:       "scan-cold",
		clients:    1,
		sf:         100,
		ratio:      1.0 / 512,
		chunkElems: 65536,
		poolBytes:  8 * mib,
	},
	{
		name:       "scan-warm",
		clients:    2,
		sf:         100,
		ratio:      1.0 / 512,
		chunkElems: 65536,
		fusion:     true,
		poolBytes:  256 * mib,
	},
	{
		name:       "serve-small",
		clients:    2,
		sf:         0.001,
		ratio:      1,
		chunkElems: 8192,
		fusion:     true,
		poolBytes:  64 * mib,
		service:    true,
		drawn:      true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// sloTarget is the serve-small latency objective on the virtual clock.
const sloTarget = 5 * time.Millisecond

// newEngine builds the workload's engine, arming the service
// observability stack where the workload asks for it.
func (w workload) newEngine() *adamant.Engine {
	opts := []adamant.EngineOption{adamant.WithBufferPool(w.poolBytes, adamant.CacheCostAware)}
	if w.fusion {
		opts = append(opts, adamant.WithFusion())
	}
	eng := adamant.NewEngine(opts...)
	if w.service {
		eng.WithTelemetry(adamant.TelemetryConfig{}).
			WithProfile(adamant.ProfileConfig{}).
			WithSLO(sloTarget, 0.99)
	}
	return eng
}

func (w workload) queryOptions() adamant.QueryOptions {
	return adamant.QueryOptions{ExecOptions: adamant.ExecOptions{
		Model:      adamant.FourPhasePipelined,
		ChunkElems: w.chunkElems,
	}}
}

// params are one query's parameters. Dates are TPC-H epoch days.
type params struct {
	shape int
	// Q1: l_shipdate <= q1Cutoff.
	q1Cutoff int32
	// Q3: c_mktsegment = q3Seg; o_orderdate < q3Date < l_shipdate.
	q3Seg  int32
	q3Date int32
	// Q4: q4Lo <= o_orderdate < q4Hi.
	q4Lo, q4Hi int32
	// Q6: q6Lo <= l_shipdate < q6Hi, l_discount in [q6DiscLo, q6DiscHi],
	// l_quantity < q6Qty.
	q6Lo, q6Hi         int32
	q6DiscLo, q6DiscHi int32
	q6Qty              int32
}

// canonical returns the TPC-H validation parameters of a shape, the ones
// tpch.RefQ1/Q3/Q4/Q6 evaluate.
func canonical(shape int) params {
	return params{
		shape:    shape,
		q1Cutoff: tpch.DateQ1Cutoff,
		q3Seg:    tpch.SegBuilding,
		q3Date:   tpch.DateQ3,
		q4Lo:     tpch.DateQ4Lo,
		q4Hi:     tpch.DateQ4Hi,
		q6Lo:     tpch.DateQ6Lo,
		q6Hi:     tpch.DateQ6Hi,
		q6DiscLo: 5,
		q6DiscHi: 7,
		q6Qty:    24,
	}
}

// splitmix is a splitmix64 stream: a few draws per query without the
// allocation of a math/rand source.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// between returns a uniform value in [lo, hi].
func (r *splitmix) between(lo, hi int32) int32 {
	return lo + int32(r.next()%uint64(hi-lo+1))
}

// drawParams draws query i's parameters from the seed. The draw depends on
// (seed, i) alone, so the query sequence is the same whatever order the
// clients take queries in. Dates range over whole days of the generated
// domains, so parameter sets rarely repeat within a run.
func drawParams(seed uint64, i int64, shape int) params {
	r := splitmix{s: seed*0x2545F4914F6CDD1D ^ uint64(i)*0x9E3779B97F4A7C15}
	p := canonical(shape)
	switch shape {
	case shapeQ1:
		p.q1Cutoff = r.between(tpch.Date(1992, 6, 1), tpch.Date(1998, 12, 1))
	case shapeQ3:
		p.q3Seg = r.between(0, tpch.NumSegments-1)
		p.q3Date = r.between(tpch.Date(1992, 3, 1), tpch.Date(1998, 7, 1))
	case shapeQ4:
		p.q4Lo = r.between(tpch.Date(1992, 1, 1), tpch.Date(1998, 5, 1))
		p.q4Hi = p.q4Lo + r.between(30, 120)
	case shapeQ6:
		p.q6Lo = r.between(tpch.Date(1992, 1, 1), tpch.Date(1997, 12, 31))
		p.q6Hi = p.q6Lo + 365
		d := r.between(1, 9)
		p.q6DiscLo, p.q6DiscHi = d-1, d+1
		p.q6Qty = r.between(10, 50)
	}
	return p
}

// blockOrder is the shape order of block k of four queries. It does not
// depend on the seed, so every run submits the same sequence of shapes.
func blockOrder(k int64) [numShapes]int {
	r := splitmix{s: uint64(k) * 0xD1B54A32D192ED03}
	order := [numShapes]int{shapeQ1, shapeQ3, shapeQ4, shapeQ6}
	for i := numShapes - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	return order
}

var epoch = time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)

// date renders TPC-H epoch days as a SQL date literal.
func date(days int32) string {
	return "DATE '" + epoch.AddDate(0, 0, int(days)).Format("2006-01-02") + "'"
}

// sql renders the query text. The forms are the relational spellings of
// TPC-H Q1/Q3/Q4/Q6 the engine's SQL dialect accepts (joins as nested IN
// subqueries, prices in cents, discounts in percent).
func (p params) sql() string {
	switch p.shape {
	case shapeQ1:
		return fmt.Sprintf(`SELECT l_rfls, SUM(l_quantity) AS sum_qty,
       SUM(l_extendedprice * (100 - l_discount)) AS sum_rev, COUNT(*) AS cnt
FROM lineitem WHERE l_shipdate <= %s GROUP BY l_rfls`, date(p.q1Cutoff))
	case shapeQ3:
		return fmt.Sprintf(`SELECT l_orderkey, SUM(l_extendedprice * (100 - l_discount)) AS revenue
FROM lineitem WHERE l_shipdate > %s AND l_orderkey IN (
  SELECT o_orderkey FROM orders WHERE o_orderdate < %s
    AND o_custkey IN (SELECT c_custkey FROM customer WHERE c_mktsegment = %d))
GROUP BY l_orderkey`, date(p.q3Date), date(p.q3Date), p.q3Seg)
	case shapeQ4:
		return fmt.Sprintf(`SELECT o_orderpriority, COUNT(*) AS order_count
FROM orders WHERE o_orderdate >= %s AND o_orderdate < %s
  AND o_orderkey IN (SELECT l_orderkey FROM lineitem WHERE l_commitdate < l_receiptdate)
GROUP BY o_orderpriority`, date(p.q4Lo), date(p.q4Hi))
	default:
		return fmt.Sprintf(`SELECT SUM(l_extendedprice * l_discount) AS revenue
FROM lineitem WHERE l_shipdate >= %s AND l_shipdate < %s
  AND l_discount BETWEEN %d AND %d AND l_quantity < %d`,
			date(p.q6Lo), date(p.q6Hi), p.q6DiscLo, p.q6DiscHi, p.q6Qty)
	}
}

// resultColumns lists the result columns of a shape, group key first.
// Q6 has no key column.
var resultColumns = [numShapes][]string{
	shapeQ1: {"l_rfls", "sum_qty", "sum_rev", "cnt"},
	shapeQ3: {"l_orderkey", "revenue"},
	shapeQ4: {"o_orderpriority", "order_count"},
	shapeQ6: {"revenue"},
}
