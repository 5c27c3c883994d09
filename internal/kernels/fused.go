package kernels

import (
	"fmt"

	"github.com/adamant-db/adamant/internal/vclock"
	"github.com/adamant-db/adamant/internal/vec"
)

// The fused kernels execute a whole filter→map→{reduce,materialize} chain in
// one pass over the base columns, the single-pass form the fusion pass over
// internal/graph rewrites fusible pipelines into. Instead of one kernel per
// Table-I primitive with bitmap and gathered-column intermediates bounced
// through device memory, a fused launch is an interpreted micro-program:
// the scalar parameters carry a conjunctive predicate list and a map
// expression, the buffer arguments carry the distinct base columns the
// chain touches, and each block of rows is filtered, mapped and reduced
// (or compacted) in a worker's cache-resident scratch without ever
// reaching device memory. This mirrors what data-path
// fusion / kernel compilation buys engines like HeavyDB: no intermediate
// allocations, one launch latency, one streaming read of the inputs.
//
// Parameter layout, shared by both fused kernels:
//
//	params[0]            nPred
//	params[1+4p..4+4p]   predicate p: colIdx, CmpOp, lo, hi (AND-combined)
//	then                 mapKind, mapA, mapB, mapK
//	then (agg only)      AggOp
//
// mapKind selects the map expression over column indices mapA/mapB:
//
//	FusedMapCol        int64(col[mapA])            (identity / widening cast)
//	FusedMapMul        int64(a[i]) * int64(b[i])   (map_mul_*)
//	FusedMapMulComp    int64(a[i]) * (K - b[i])    (map_mul_complement_*)
//
// Column indices refer to the leading buffer arguments; the trailing one
// (agg) or two (materialize) arguments are outputs. Columns may be I32 or
// I64 and must share one length.

// Map expression kinds of the fused kernels.
const (
	FusedMapCol int64 = iota
	FusedMapMul
	FusedMapMulComp
)

// fusedCol is a base column of either width; the row loops dispatch on
// the width once per block, not per row.
type fusedCol struct {
	i32 []int32
	i64 []int64
}

// gather writes the column's values at rows base+sel[j] into dst[j].
func (c fusedCol) gather(base int, sel []int32, dst []int64) {
	if c.i32 != nil {
		gatherRows(c.i32[base:], sel, dst)
		return
	}
	gatherRows(c.i64[base:], sel, dst)
}

func gatherRows[T integer](col []T, sel []int32, dst []int64) {
	dst = dst[:len(sel)]
	for j, i := range sel {
		dst[j] = int64(col[i])
	}
}

// fusedPred is one conjunct over a column, in the range form every filter
// kernel shares.
type fusedPred struct {
	col fusedCol
	rangePred
}

func newFusedPred(col fusedCol, op CmpOp, lo, hi int64) fusedPred {
	return fusedPred{col: col, rangePred: newRangePred(op, lo, hi)}
}

// filterDense scans rows [base, base+n) and writes surviving offsets
// (relative to base) into sel, returning the count.
func (pr *fusedPred) filterDense(base, n int, sel []int32) int {
	if s := pr.col.i32; s != nil {
		return selectDense(pr.rangePred, s[base:base+n], sel)
	}
	return selectDense(pr.rangePred, pr.col.i64[base:base+n], sel)
}

// filterSel refines an existing selection in place, returning the new count.
func (pr *fusedPred) filterSel(base int, sel []int32) int {
	if s := pr.col.i32; s != nil {
		return selectRefine(pr.rangePred, s[base:], sel)
	}
	return selectRefine(pr.rangePred, pr.col.i64[base:], sel)
}

// fusedProg is the decoded micro-program of one fused launch.
type fusedProg struct {
	cols    []fusedCol
	preds   []fusedPred
	mapKind int64
	mapA    fusedCol
	mapB    fusedCol
	mapK    int64
	rows    int
}

// fusedBlockRows is the selection-vector block size: big enough to
// amortize the per-predicate loop setup, small enough that the selection
// and the touched column slices stay cache-resident.
const fusedBlockRows = 1024

// fusedBlock is a worker's scratch for one block: the selection vector and
// the mapped values of the selected rows.
type fusedBlock struct {
	sel       [fusedBlockRows]int32
	vals, tmp [fusedBlockRows]int64
}

// selectBlock evaluates the conjunctive predicate list over rows
// [base, base+n) and writes the surviving offsets (relative to base, in
// ascending order) into sel, returning the survivor count. The first
// predicate scans densely; the rest refine the shrinking selection, so a
// selective leading conjunct short-circuits the others for most rows.
func (p *fusedProg) selectBlock(base, n int, sel []int32) int {
	if len(p.preds) == 0 {
		for i := 0; i < n; i++ {
			sel[i] = int32(i)
		}
		return n
	}
	c := p.preds[0].filterDense(base, n, sel)
	for k := 1; k < len(p.preds) && c > 0; k++ {
		c = p.preds[k].filterSel(base, sel[:c])
	}
	return c
}

// mapBlock selects rows [base, base+n) and evaluates the map expression
// over the survivors into b.vals, returning the survivor count. Each map
// kind is one typed pass over the gathered operands.
func (p *fusedProg) mapBlock(base, n int, b *fusedBlock) int {
	c := p.selectBlock(base, n, b.sel[:])
	sel, vals, tmp := b.sel[:c], b.vals[:c], b.tmp[:c]
	p.mapA.gather(base, sel, vals)
	switch p.mapKind {
	case FusedMapMul:
		p.mapB.gather(base, sel, tmp)
		for j, v := range tmp {
			vals[j] *= v
		}
	case FusedMapMulComp:
		p.mapB.gather(base, sel, tmp)
		for j, v := range tmp {
			vals[j] *= p.mapK - v
		}
	}
	return c
}

// compactSpan writes the mapped survivors of rows [s, e) densely into out.
func compactSpan[T integer](p *fusedProg, s, e int, out []T) {
	var b fusedBlock
	for base := s; base < e; base += fusedBlockRows {
		c := p.mapBlock(base, min(fusedBlockRows, e-base), &b)
		for j, v := range b.vals[:c] {
			out[j] = T(v)
		}
		out = out[c:]
	}
}

// decodeFused parses and validates the shared program prefix. nOut is the
// number of trailing output arguments the caller owns.
func decodeFused(name string, args []vec.Vector, params []int64, nOut int) (*fusedProg, int, error) {
	nCols := len(args) - nOut
	if nCols < 1 {
		return nil, 0, fmt.Errorf("%w: %s needs at least one column argument", ErrBadArgs, name)
	}
	if len(params) < 1 {
		return nil, 0, fmt.Errorf("%w: %s missing predicate count", ErrBadArgs, name)
	}
	nPred := int(params[0])
	if nPred < 0 || len(params) < 1+4*nPred+4 {
		return nil, 0, fmt.Errorf("%w: %s has %d params for %d predicates", ErrBadArgs, name, len(params), nPred)
	}
	p := &fusedProg{cols: make([]fusedCol, nCols), rows: args[0].Len()}
	for c := 0; c < nCols; c++ {
		switch args[c].Type() {
		case vec.Int32:
			p.cols[c] = fusedCol{i32: args[c].I32()}
		case vec.Int64:
			p.cols[c] = fusedCol{i64: args[c].I64()}
		default:
			return nil, 0, fmt.Errorf("%w: %s column %d must be Int32 or Int64, got %s", ErrBadArgs, name, c, args[c].Type())
		}
		if args[c].Len() != p.rows {
			return nil, 0, fmt.Errorf("%w: mismatched argument lengths %d vs %d", ErrBadArgs, args[c].Len(), p.rows)
		}
	}
	colAt := func(idx int64) (fusedCol, error) {
		if idx < 0 || int(idx) >= nCols {
			return fusedCol{}, fmt.Errorf("%w: %s column index %d out of %d columns", ErrBadArgs, name, idx, nCols)
		}
		return p.cols[idx], nil
	}
	p.preds = make([]fusedPred, nPred)
	for i := 0; i < nPred; i++ {
		base := 1 + 4*i
		col, err := colAt(params[base])
		if err != nil {
			return nil, 0, err
		}
		p.preds[i] = newFusedPred(col, CmpOp(params[base+1]), params[base+2], params[base+3])
	}
	base := 1 + 4*nPred
	p.mapKind = params[base]
	var err error
	if p.mapA, err = colAt(params[base+1]); err != nil {
		return nil, 0, err
	}
	if p.mapKind == FusedMapMul || p.mapKind == FusedMapMulComp {
		if p.mapB, err = colAt(params[base+2]); err != nil {
			return nil, 0, err
		}
	}
	p.mapK = params[base+3]
	return p, base + 4, nil
}

// fusedCost prices a fused launch as one streaming pass over the base
// columns plus the (tiny or survivor-sized) outputs — the single-pass win:
// no per-primitive launches, no bitmap or gathered-column intermediates,
// no materialization penalty.
func fusedCost(m CostModel, args []vec.Vector, _ []int64) vclock.Duration {
	return streamCost(m, args, nil)
}

// FusedFilterAgg filters, maps and block-reduces in one pass: the fused form
// of a FILTER_BITMAP* → (AND…) → MATERIALIZE* → MAP → AGG_BLOCK chain. The
// result accumulates into out[0] across chunks like agg_block_*. Args:
// col0..colN-1 (I32/I64), out(I64 len 1); params: fused program + AggOp.
var FusedFilterAgg = register(&Kernel{
	Name:    "fused_filter_agg",
	NArgs:   -1,
	NParams: 1,
	Source:  "__kernel fused_filter_agg(cols..., out, prog) { if (pred(i)) acc = agg(acc, map(i)); }",
	Fn: func(ctx *Ctx, args []vec.Vector, params []int64) error {
		if len(args) < 2 {
			return fmt.Errorf("%w: fused_filter_agg needs columns and an output", ErrBadArgs)
		}
		prog, next, err := decodeFused("fused_filter_agg", args, params, 1)
		if err != nil {
			return err
		}
		if len(params) < next+1 {
			return fmt.Errorf("%w: fused_filter_agg missing aggregate op", ErrBadArgs)
		}
		op := AggOp(params[next])
		out := args[len(args)-1]
		if out.Type() != vec.Int64 || out.Len() != 1 {
			return fmt.Errorf("%w: fused_filter_agg output must be I64 len 1", ErrBadArgs)
		}
		chunk, nSpans := spans(ctx, prog.rows)
		partial := make([]int64, nSpans)
		parallelRange(ctx, prog.rows, 1, func(s, e int) {
			var b fusedBlock
			acc := op.identity()
			for base := s; base < e; base += fusedBlockRows {
				c := prog.mapBlock(base, min(fusedBlockRows, e-base), &b)
				acc = fold(op, acc, b.vals[:c])
			}
			partial[s/chunk] = acc
		})
		acc := op.identity()
		for _, p := range partial {
			acc = op.combine2(acc, p)
		}
		args[len(args)-1].I64()[0] = op.combine2(out.I64()[0], acc)
		return nil
	},
	Cost: fusedCost,
})

// FusedFilterMat filters, maps and compacts survivors into a dense column
// in ascending row order (bit-identical to the unfused MATERIALIZE path),
// writing the survivor count to outCount[0]: the fused form of a filter
// chain feeding a MATERIALIZE (optionally through a MAP). The output takes
// the chain's original type (I32 for a bare materialize of an int32
// column, I64 after a widening map). Args: col0..colN-1 (I32/I64),
// out(I32/I64), outCount(I64 len 1); params: fused program.
var FusedFilterMat = register(&Kernel{
	Name:    "fused_filter_mat",
	NArgs:   -1,
	NParams: 1,
	Source:  "__kernel fused_filter_mat(cols..., out, count) { /* single-pass compaction */ }",
	Fn: func(ctx *Ctx, args []vec.Vector, params []int64) error {
		if len(args) < 3 {
			return fmt.Errorf("%w: fused_filter_mat needs columns, an output and a count", ErrBadArgs)
		}
		prog, _, err := decodeFused("fused_filter_mat", args, params, 2)
		if err != nil {
			return err
		}
		out := args[len(args)-2]
		outCount := args[len(args)-1].I64()
		var emit func(s, e, at int)
		switch out.Type() {
		case vec.Int32:
			o := out.I32()
			emit = func(s, e, at int) { compactSpan(prog, s, e, o[at:]) }
		case vec.Int64:
			o := out.I64()
			emit = func(s, e, at int) { compactSpan(prog, s, e, o[at:]) }
		default:
			return fmt.Errorf("%w: fused_filter_mat output must be I32 or I64", ErrBadArgs)
		}
		if len(outCount) != 1 {
			return fmt.Errorf("%w: fused_filter_mat count buffer must have 1 element", ErrBadArgs)
		}

		// Two-phase compaction, like filter_pos: deterministic and
		// identical to the bitmap materialization order.
		total := compact(ctx, prog.rows, out.Len(), func(s, e int) int {
			var sel [fusedBlockRows]int32
			c := 0
			for base := s; base < e; base += fusedBlockRows {
				c += prog.selectBlock(base, min(fusedBlockRows, e-base), sel[:])
			}
			return c
		}, emit)
		if total > out.Len() {
			return fmt.Errorf("%w: fused_filter_mat output holds %d values, need %d", ErrBadArgs, out.Len(), total)
		}
		outCount[0] = int64(total)
		return nil
	},
	Cost: fusedCost,
})
