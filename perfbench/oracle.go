package main

import (
	"fmt"
	"sort"

	"github.com/adamant-db/adamant"
	"github.com/adamant-db/adamant/internal/tpch"
)

// The answer oracle shares no code with internal/sql or internal/kernels:
// canonical-parameter queries are checked against tpch.RefQ1/Q3/Q4/Q6, and
// drawn-parameter queries against the row-at-a-time evaluator below, run
// over the same host columns the engine's catalog holds. Answers are
// compared as digests of their rows sorted by group key.

// hostColumns are the generated columns the four shapes read.
type hostColumns struct {
	cCustkey, cMktseg                              []int32
	oOrderkey, oCustkey, oOrderdate, oPriority     []int32
	lOrderkey, lQuantity, lPrice, lDiscount, lShip []int32
	lCommit, lReceipt, lRfls                       []int32
}

func newHostColumns(ds *tpch.Dataset) *hostColumns {
	c := ds.Customer.MustColumn
	o := ds.Orders.MustColumn
	l := ds.Lineitem.MustColumn
	return &hostColumns{
		cCustkey: c("c_custkey").I32(), cMktseg: c("c_mktsegment").I32(),
		oOrderkey: o("o_orderkey").I32(), oCustkey: o("o_custkey").I32(),
		oOrderdate: o("o_orderdate").I32(), oPriority: o("o_orderpriority").I32(),
		lOrderkey: l("l_orderkey").I32(), lQuantity: l("l_quantity").I32(),
		lPrice: l("l_extendedprice").I32(), lDiscount: l("l_discount").I32(),
		lShip: l("l_shipdate").I32(), lCommit: l("l_commitdate").I32(),
		lReceipt: l("l_receiptdate").I32(), lRfls: l("l_rfls").I32(),
	}
}

// evaluate answers one query row at a time.
func (h *hostColumns) evaluate(p params) uint64 {
	switch p.shape {
	case shapeQ1:
		groups := map[int64][]int64{}
		for i, ship := range h.lShip {
			if ship > p.q1Cutoff {
				continue
			}
			g := groups[int64(h.lRfls[i])]
			if g == nil {
				g = make([]int64, 3)
				groups[int64(h.lRfls[i])] = g
			}
			g[0] += int64(h.lQuantity[i])
			g[1] += int64(h.lPrice[i]) * (100 - int64(h.lDiscount[i]))
			g[2]++
		}
		return digestGroups(groups)
	case shapeQ3:
		custs := map[int32]bool{}
		for i, seg := range h.cMktseg {
			if seg == p.q3Seg {
				custs[h.cCustkey[i]] = true
			}
		}
		orders := map[int32]bool{}
		for i, od := range h.oOrderdate {
			if od < p.q3Date && custs[h.oCustkey[i]] {
				orders[h.oOrderkey[i]] = true
			}
		}
		groups := map[int64][]int64{}
		for i, key := range h.lOrderkey {
			if h.lShip[i] > p.q3Date && orders[key] {
				g := groups[int64(key)]
				if g == nil {
					g = make([]int64, 1)
					groups[int64(key)] = g
				}
				g[0] += int64(h.lPrice[i]) * (100 - int64(h.lDiscount[i]))
			}
		}
		return digestGroups(groups)
	case shapeQ4:
		late := map[int32]bool{}
		for i, key := range h.lOrderkey {
			if h.lCommit[i] < h.lReceipt[i] {
				late[key] = true
			}
		}
		groups := map[int64][]int64{}
		for i, od := range h.oOrderdate {
			if od >= p.q4Lo && od < p.q4Hi && late[h.oOrderkey[i]] {
				g := groups[int64(h.oPriority[i])]
				if g == nil {
					g = make([]int64, 1)
					groups[int64(h.oPriority[i])] = g
				}
				g[0]++
			}
		}
		return digestGroups(groups)
	default:
		var sum int64
		for i, ship := range h.lShip {
			d := h.lDiscount[i]
			if ship >= p.q6Lo && ship < p.q6Hi && d >= p.q6DiscLo && d <= p.q6DiscHi && h.lQuantity[i] < p.q6Qty {
				sum += int64(h.lPrice[i]) * int64(d)
			}
		}
		d := newDigest(1)
		d.mix(sum)
		return uint64(d)
	}
}

// referenceDigest answers a canonical-parameter query with the tpch
// package's reference implementation.
func referenceDigest(ds *tpch.Dataset, shape int) uint64 {
	switch shape {
	case shapeQ1:
		groups := map[int64][]int64{}
		for k, g := range tpch.RefQ1(ds) {
			groups[k] = []int64{g.SumQty, g.SumRev, g.Count}
		}
		return digestGroups(groups)
	case shapeQ3:
		return digestGroups(singleValued(tpch.RefQ3(ds)))
	case shapeQ4:
		return digestGroups(singleValued(tpch.RefQ4(ds)))
	default:
		d := newDigest(1)
		d.mix(tpch.RefQ6(ds))
		return uint64(d)
	}
}

func singleValued(m map[int64]int64) map[int64][]int64 {
	out := make(map[int64][]int64, len(m))
	for k, v := range m {
		out[k] = []int64{v}
	}
	return out
}

// digestGroups digests key → values groups as rows sorted by key.
func digestGroups(groups map[int64][]int64) uint64 {
	keys := make([]int64, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	d := newDigest(len(keys))
	for _, k := range keys {
		d.mix(k)
		for _, v := range groups[k] {
			d.mix(v)
		}
	}
	return uint64(d)
}

// digest is FNV-1a over a row count and then every value in row order.
type digest uint64

func newDigest(rows int) digest {
	d := digest(14695981039346656037)
	d.mix(int64(rows))
	return d
}

func (d *digest) mix(v int64) {
	for b := 0; b < 8; b++ {
		*d ^= digest(uint64(v>>(8*b)) & 0xff)
		*d *= 1099511628211
	}
}

// resultDigest digests the engine's answer the way the oracle digests its
// own: grouped shapes as rows sorted by key, Q6 as its one revenue row.
func resultDigest(res *adamant.Result, shape int) (uint64, error) {
	names := resultColumns[shape]
	cols := make([][]int64, len(names))
	for i, name := range names {
		if !hasColumn(res, name) {
			return 0, fmt.Errorf("%s result has no column %q (columns %v)", shapeNames[shape], name, res.Columns())
		}
		cols[i] = res.Int64(name)
		if len(cols[i]) != len(cols[0]) {
			return 0, fmt.Errorf("%s result column %q has %d rows, %q has %d",
				shapeNames[shape], name, len(cols[i]), names[0], len(cols[0]))
		}
	}
	order := make([]int, len(cols[0]))
	for i := range order {
		order[i] = i
	}
	if shape != shapeQ6 {
		keys := cols[0]
		sort.Slice(order, func(i, j int) bool { return keys[order[i]] < keys[order[j]] })
	}
	d := newDigest(len(order))
	for _, r := range order {
		for _, c := range cols {
			d.mix(c[r])
		}
	}
	return uint64(d), nil
}

func hasColumn(res *adamant.Result, name string) bool {
	for _, c := range res.Columns() {
		if c == name {
			return true
		}
	}
	return false
}
