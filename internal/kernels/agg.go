package kernels

import (
	"fmt"
	"math"

	"github.com/adamant-db/adamant/internal/vclock"
	"github.com/adamant-db/adamant/internal/vec"
)

// AggOp selects the aggregate function of AGG_BLOCK / HASH_AGG / SORT_AGG.
type AggOp int64

// Aggregate functions.
const (
	AggSum AggOp = iota
	AggCount
	AggMin
	AggMax
)

// String returns the SQL spelling.
func (op AggOp) String() string {
	switch op {
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return fmt.Sprintf("agg(%d)", int64(op))
	}
}

func (op AggOp) identity() int64 {
	switch op {
	case AggMin:
		return math.MaxInt64
	case AggMax:
		return math.MinInt64
	default:
		return 0
	}
}

func (op AggOp) combine(acc, v int64) int64 {
	switch op {
	case AggSum:
		return acc + v
	case AggCount:
		return acc + 1
	case AggMin:
		if v < acc {
			return v
		}
		return acc
	case AggMax:
		if v > acc {
			return v
		}
		return acc
	default:
		return acc
	}
}

func aggCost(m CostModel, args []vec.Vector, _ []int64) vclock.Duration {
	// Tree reduction: one streaming pass over the input.
	return m.SDK.Stream(m.Spec, args[0].Bytes())
}

// AggBlockI64 reduces an int64 column to a scalar (the AGG_BLOCK primitive,
// a pipeline breaker). The result accumulates into out[0], so chunked
// execution can fold partial aggregates of successive chunks into the same
// output buffer. Args: in(I64), out(I64 len 1); params: op.
var AggBlockI64 = register(&Kernel{
	Name:    "agg_block_i64",
	NArgs:   2,
	NParams: 1,
	Source:  "__kernel agg_block_i64(in, out, op) { /* tree reduction */ }",
	Fn: func(ctx *Ctx, args []vec.Vector, params []int64) error {
		in, out := args[0].I64(), args[1].I64()
		if len(out) != 1 {
			return fmt.Errorf("%w: agg_block output must have 1 element", ErrBadArgs)
		}
		op := AggOp(params[0])
		out[0] = op.combine2(out[0], reduce(ctx, in, op))
		return nil
	},
	Cost: aggCost,
})

// AggBlockI32 reduces an int32 column into an int64 scalar, accumulating
// into out[0]. Args: in(I32), out(I64 len 1); params: op.
var AggBlockI32 = register(&Kernel{
	Name:    "agg_block_i32",
	NArgs:   2,
	NParams: 1,
	Source:  "__kernel agg_block_i32(in, out, op) { /* tree reduction */ }",
	Fn: func(ctx *Ctx, args []vec.Vector, params []int64) error {
		in, out := args[0].I32(), args[1].I64()
		if len(out) != 1 {
			return fmt.Errorf("%w: agg_block output must have 1 element", ErrBadArgs)
		}
		op := AggOp(params[0])
		out[0] = op.combine2(out[0], reduce(ctx, in, op))
		return nil
	},
	Cost: aggCost,
})

// AggCountBits counts the set bits of a bitmap into out[0] (COUNT over a
// filter result without materialization). Accumulates across chunks. Args:
// in(Bits), out(I64 len 1).
var AggCountBits = register(&Kernel{
	Name:   "agg_count_bits",
	NArgs:  2,
	Source: "__kernel agg_count_bits(bm, out) { atomicAdd(out, popc(bm.word[w])); }",
	Fn: func(ctx *Ctx, args []vec.Vector, _ []int64) error {
		bm := args[0]
		out := args[1].I64()
		if bm.Type() != vec.Bits {
			return fmt.Errorf("%w: agg_count_bits input must be Bits", ErrBadArgs)
		}
		if len(out) != 1 {
			return fmt.Errorf("%w: agg_count_bits output must have 1 element", ErrBadArgs)
		}
		out[0] += int64(bm.Popcount())
		return nil
	},
	Cost: aggCost,
})

// combine2 merges two already-reduced partials; COUNT partials add rather
// than increment.
func (op AggOp) combine2(a, b int64) int64 {
	if op == AggCount {
		return a + b
	}
	return op.combine(a, b)
}

// Merge folds two already-reduced partial aggregates — the coordinator-side
// re-aggregation of sharded scatter/gather execution. It is combine2
// exported: SUM and COUNT partials add, MIN/MAX partials take the extremum,
// so merging per-shard partials is bit-identical to aggregating the
// unsharded input.
func (op AggOp) Merge(a, b int64) int64 { return op.combine2(a, b) }

// MergeIdentity is the fold seed for Merge: 0 for SUM/COUNT, the
// appropriate int64 extremum for MIN/MAX.
func (op AggOp) MergeIdentity() int64 { return op.identity() }

// fold reduces in into acc under op, one typed loop per operator.
func fold[T integer](op AggOp, acc int64, in []T) int64 {
	switch op {
	case AggSum:
		for _, v := range in {
			acc += int64(v)
		}
	case AggCount:
		acc += int64(len(in))
	case AggMin:
		for _, v := range in {
			acc = min(acc, int64(v))
		}
	case AggMax:
		for _, v := range in {
			acc = max(acc, int64(v))
		}
	}
	return acc
}

// reduce folds in under op across worker spans, merging the partials.
func reduce[T integer](ctx *Ctx, in []T, op AggOp) int64 {
	chunk, nSpans := spans(ctx, len(in))
	partial := make([]int64, nSpans)
	parallelRange(ctx, len(in), 1, func(s, e int) {
		partial[s/chunk] = fold(op, op.identity(), in[s:e])
	})
	acc := op.identity()
	for _, p := range partial {
		acc = op.combine2(acc, p)
	}
	return acc
}

// SortAggI32I64 aggregates an int64 value column grouped by an int32 key
// column that is already sorted (the SORT_AGG primitive). The caller
// supplies the group-boundary prefix sum produced by PREFIX_SUM over the
// boundary indicator, as Table I specifies: pxsum[i] is the group index of
// row i. Group keys and aggregates are written densely; the group count
// goes to outCount[0]. Args: keys(I32), values(I64), pxsum(I32),
// outKeys(I32), outAggs(I64), outCount(I64 len 1); params: op.
var SortAggI32I64 = register(&Kernel{
	Name:    "sort_agg_i32_i64",
	NArgs:   6,
	NParams: 1,
	Source:  "__kernel sort_agg_i32_i64(k, v, pxsum, gk, ga, count, op) { /* segmented reduce */ }",
	Fn: func(ctx *Ctx, args []vec.Vector, params []int64) error {
		keys, values, pxsum := args[0].I32(), args[1].I64(), args[2].I32()
		outKeys, outAggs, outCount := args[3].I32(), args[4].I64(), args[5].I64()
		if err := sameLen(len(keys), len(values), len(pxsum)); err != nil {
			return err
		}
		if len(outCount) != 1 {
			return fmt.Errorf("%w: sort_agg count buffer must have 1 element", ErrBadArgs)
		}
		op := AggOp(params[0])
		n := len(keys)
		if n == 0 {
			outCount[0] = 0
			return nil
		}
		groups := int(pxsum[n-1]) + 1
		if groups > len(outKeys) || groups > len(outAggs) {
			return fmt.Errorf("%w: sort_agg output holds %d groups, need %d", ErrBadArgs, len(outKeys), groups)
		}
		for g := 0; g < groups; g++ {
			outAggs[g] = op.identity()
		}
		// Segmented reduction; group ranges are contiguous because the
		// input is sorted, so each group is reduced by one pass.
		for i := 0; i < n; i++ {
			g := pxsum[i]
			outKeys[g] = keys[i]
			outAggs[g] = op.combine(outAggs[g], values[i])
		}
		outCount[0] = int64(groups)
		return nil
	},
	Cost: func(m CostModel, args []vec.Vector, _ []int64) vclock.Duration {
		var in int64
		for _, a := range args[:3] {
			in += a.Bytes()
		}
		return m.SDK.Stream(m.Spec, in)
	},
})
