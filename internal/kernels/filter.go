package kernels

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/adamant-db/adamant/internal/vclock"
	"github.com/adamant-db/adamant/internal/vec"
)

// CmpOp selects the comparison a filter kernel applies. The operand values
// arrive through the scalar parameters (lo, hi); Between is inclusive on
// both ends.
type CmpOp int64

// Comparison operators.
const (
	CmpLt CmpOp = iota
	CmpLe
	CmpGt
	CmpGe
	CmpEq
	CmpNe
	CmpBetween
)

// String returns the SQL-ish operator spelling.
func (op CmpOp) String() string {
	switch op {
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	case CmpEq:
		return "="
	case CmpNe:
		return "<>"
	case CmpBetween:
		return "between"
	default:
		return fmt.Sprintf("cmp(%d)", int64(op))
	}
}

// Matches evaluates the predicate against a single value.
func (op CmpOp) Matches(v, lo, hi int64) bool {
	switch op {
	case CmpLt:
		return v < lo
	case CmpLe:
		return v <= lo
	case CmpGt:
		return v > lo
	case CmpGe:
		return v >= lo
	case CmpEq:
		return v == lo
	case CmpNe:
		return v != lo
	case CmpBetween:
		return v >= lo && v <= hi
	default:
		return false
	}
}

// rangePred is a comparison normalized to an inclusive range test: v
// matches when lo <= v <= hi, negated when ne. Every filter kernel, fused
// or not, evaluates its predicate in this form, so a row costs one
// unsigned compare, uint64(v-lo) <= uint64(hi-lo), with no operator
// dispatch. Normalized ranges always have lo <= hi.
type rangePred struct {
	lo, hi int64
	ne     bool
}

// matchNone is the predicate that matches nothing: the full range, negated.
var matchNone = rangePred{lo: math.MinInt64, hi: math.MaxInt64, ne: true}

// newRangePred normalizes (op, lo, hi) to range form. Unknown operators
// and empty ranges never match, as CmpOp.Matches returns false for them.
func newRangePred(op CmpOp, lo, hi int64) rangePred {
	const minI, maxI = math.MinInt64, math.MaxInt64
	switch op {
	case CmpLt:
		if lo == minI {
			return matchNone
		}
		return rangePred{lo: minI, hi: lo - 1}
	case CmpLe:
		return rangePred{lo: minI, hi: lo}
	case CmpGt:
		if lo == maxI {
			return matchNone
		}
		return rangePred{lo: lo + 1, hi: maxI}
	case CmpGe:
		return rangePred{lo: lo, hi: maxI}
	case CmpEq:
		return rangePred{lo: lo, hi: lo}
	case CmpNe:
		return rangePred{lo: lo, hi: lo, ne: true}
	case CmpBetween:
		if lo <= hi {
			return rangePred{lo: lo, hi: hi}
		}
	}
	return matchNone
}

// b2u converts a comparison result to 0/1 without a branch.
func b2u(b bool) uint64 {
	var u uint64
	if b {
		u = 1
	}
	return u
}

// matchWord evaluates the predicate over at most 64 values and packs the
// result into one bitmap word; bits beyond len(in) stay clear.
func matchWord[T integer](p rangePred, in []T) uint64 {
	lo, span := p.lo, uint64(p.hi-p.lo)
	var bits uint64
	for j, v := range in {
		bits |= b2u(uint64(int64(v)-lo) <= span) << uint(j)
	}
	if p.ne {
		bits ^= 1<<uint(len(in)) - 1
	}
	return bits
}

// selectDense writes the offsets of the matching values of in into sel,
// returning their count. The append is predicated: every row stores its
// offset and only a match advances the cursor.
func selectDense[T integer](p rangePred, in []T, sel []int32) int {
	lo, span, ne := p.lo, uint64(p.hi-p.lo), p.ne
	c := 0
	for i, v := range in {
		sel[c] = int32(i)
		c += int(b2u((uint64(int64(v)-lo) <= span) != ne))
	}
	return c
}

// selectRefine keeps the offsets in sel whose value in col matches,
// compacting them in place and returning the new count.
func selectRefine[T integer](p rangePred, col []T, sel []int32) int {
	lo, span, ne := p.lo, uint64(p.hi-p.lo), p.ne
	c := 0
	for _, idx := range sel {
		sel[c] = idx
		c += int(b2u((uint64(int64(col[idx])-lo) <= span) != ne))
	}
	return c
}

// filterBitmap is the body of the FILTER_BITMAP kernels.
func filterBitmap[T integer](ctx *Ctx, name string, in []T, out vec.Vector, params []int64) error {
	if out.Type() != vec.Bits || out.Len() != len(in) {
		return fmt.Errorf("%w: %s output %s for %d inputs", ErrBadArgs, name, out, len(in))
	}
	p := newRangePred(CmpOp(params[0]), params[1], params[2])
	words := out.Words()
	parallelRange(ctx, len(in), 64, func(s, e int) {
		for i := s; i < e; i += 64 {
			words[i/64] = matchWord(p, in[i:min(i+64, e)])
		}
	})
	return nil
}

// FilterBitmapI32 evaluates a predicate over an int32 column and writes a
// bit-packed result, the FILTER_BITMAP primitive. Args: in(I32), out(Bits);
// params: op, lo, hi.
var FilterBitmapI32 = register(&Kernel{
	Name:    "filter_bitmap_i32",
	NArgs:   2,
	NParams: 3,
	Source:  "__kernel filter_bitmap_i32(in, out, op, lo, hi) { out.bit[i] = cmp(in[i]); }",
	Fn: func(ctx *Ctx, args []vec.Vector, params []int64) error {
		return filterBitmap(ctx, "filter_bitmap_i32", args[0].I32(), args[1], params)
	},
	Cost: streamCost,
})

// FilterBitmapI64 is FilterBitmapI32 for int64 columns (derived measures
// filtered after a MAP). Args: in(I64), out(Bits); params: op, lo, hi.
var FilterBitmapI64 = register(&Kernel{
	Name:    "filter_bitmap_i64",
	NArgs:   2,
	NParams: 3,
	Source:  "__kernel filter_bitmap_i64(in, out, op, lo, hi) { out.bit[i] = cmp(in[i]); }",
	Fn: func(ctx *Ctx, args []vec.Vector, params []int64) error {
		return filterBitmap(ctx, "filter_bitmap_i64", args[0].I64(), args[1], params)
	},
	Cost: streamCost,
})

// BitmapAnd intersects two bitmaps, combining conjunctive filter results.
// Args: a(Bits), b(Bits), out(Bits).
var BitmapAnd = register(&Kernel{
	Name:   "bitmap_and",
	NArgs:  3,
	Source: "__kernel bitmap_and(a, b, out) { out.word[w] = a.word[w] & b.word[w]; }",
	Fn:     bitmapCombine(func(x, y uint64) uint64 { return x & y }),
	Cost:   streamCost,
})

// BitmapOr unions two bitmaps. Args: a(Bits), b(Bits), out(Bits).
var BitmapOr = register(&Kernel{
	Name:   "bitmap_or",
	NArgs:  3,
	Source: "__kernel bitmap_or(a, b, out) { out.word[w] = a.word[w] | b.word[w]; }",
	Fn:     bitmapCombine(func(x, y uint64) uint64 { return x | y }),
	Cost:   streamCost,
})

// BitmapNot complements a bitmap (NOT IN anti-joins). Trailing bits beyond
// the logical length stay unspecified, as consumers mask by length. Args:
// in(Bits), out(Bits).
var BitmapNot = register(&Kernel{
	Name:   "bitmap_not",
	NArgs:  2,
	Source: "__kernel bitmap_not(in, out) { out.word[w] = ~in.word[w]; }",
	Fn: func(ctx *Ctx, args []vec.Vector, _ []int64) error {
		in, out := args[0], args[1]
		if in.Type() != vec.Bits || out.Type() != vec.Bits {
			return fmt.Errorf("%w: bitmap_not needs Bits args", ErrBadArgs)
		}
		if err := sameLen(in.Len(), out.Len()); err != nil {
			return err
		}
		iw, ow := in.Words(), out.Words()
		parallelRange(ctx, len(ow), 1, func(s, e int) {
			for w := s; w < e; w++ {
				ow[w] = ^iw[w]
			}
		})
		return nil
	},
	Cost: streamCost,
})

// BitmapAndNot computes a AND NOT b, used for anti-join style filters.
// Args: a(Bits), b(Bits), out(Bits).
var BitmapAndNot = register(&Kernel{
	Name:   "bitmap_andnot",
	NArgs:  3,
	Source: "__kernel bitmap_andnot(a, b, out) { out.word[w] = a.word[w] & ~b.word[w]; }",
	Fn:     bitmapCombine(func(x, y uint64) uint64 { return x &^ y }),
	Cost:   streamCost,
})

func bitmapCombine(f func(x, y uint64) uint64) Func {
	return func(ctx *Ctx, args []vec.Vector, _ []int64) error {
		a, b, out := args[0], args[1], args[2]
		if a.Type() != vec.Bits || b.Type() != vec.Bits || out.Type() != vec.Bits {
			return fmt.Errorf("%w: bitmap combine needs Bits args", ErrBadArgs)
		}
		if err := sameLen(a.Len(), b.Len(), out.Len()); err != nil {
			return err
		}
		aw, bw, ow := a.Words(), b.Words(), out.Words()
		parallelRange(ctx, len(ow), 1, func(s, e int) {
			for w := s; w < e; w++ {
				ow[w] = f(aw[w], bw[w])
			}
		})
		return nil
	}
}

// FilterPosI32 evaluates a predicate over an int32 column and emits the
// ordered position list of matching rows, the FILTER_POSITION primitive.
// The match count is written to outCount[0]; outPos must be sized for the
// worst case (the runtime estimates it, §III-C prepare_output_buffer).
// Args: in(I32), outPos(I32), outCount(I64 len 1); params: op, lo, hi.
var FilterPosI32 = register(&Kernel{
	Name:    "filter_pos_i32",
	NArgs:   3,
	NParams: 3,
	Source:  "__kernel filter_pos_i32(in, pos, count, op, lo, hi) { /* two-phase scan */ }",
	Fn: func(ctx *Ctx, args []vec.Vector, params []int64) error {
		in := args[0].I32()
		outPos := args[1].I32()
		outCount := args[2].I64()
		if len(outCount) != 1 {
			return fmt.Errorf("%w: filter_pos_i32 count buffer must have 1 element", ErrBadArgs)
		}
		p := newRangePred(CmpOp(params[0]), params[1], params[2])
		total := compact(ctx, len(in), len(outPos), func(s, e int) int {
			c := 0
			for i := s; i < e; i += 64 {
				c += bits.OnesCount64(matchWord(p, in[i:min(i+64, e)]))
			}
			return c
		}, func(s, e, at int) {
			for i := s; i < e; i += 64 {
				for w := matchWord(p, in[i:min(i+64, e)]); w != 0; w &= w - 1 {
					outPos[at] = int32(i + bits.TrailingZeros64(w))
					at++
				}
			}
		})
		if total > len(outPos) {
			return fmt.Errorf("%w: filter_pos_i32 output holds %d positions, need %d", ErrBadArgs, len(outPos), total)
		}
		outCount[0] = int64(total)
		return nil
	},
	Cost: func(m CostModel, args []vec.Vector, params []int64) vclock.Duration {
		// Two passes over the input plus a scatter of the survivors.
		in := args[0].Bytes()
		return m.SDK.Stream(m.Spec, 2*in) + m.SDK.Random(m.Spec, args[1].Bytes()/4)
	},
})

// compact is the two-phase, order-preserving compaction shared by
// filter_pos and fused_filter_mat: count(s, e) survivors per worker span,
// an exclusive prefix over the span counts, then emit(s, e, at) writes span
// [s, e)'s survivors from output index at. It returns the survivor total
// and skips the emit phase when the total exceeds limit.
func compact(ctx *Ctx, n, limit int, count func(s, e int) int, emit func(s, e, at int)) int {
	chunk, nSpans := spans(ctx, n)
	counts := make([]int, nSpans+1)
	parallelRange(ctx, n, 1, func(s, e int) { counts[s/chunk+1] = count(s, e) })
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	total := counts[len(counts)-1]
	if total <= limit {
		parallelRange(ctx, n, 1, func(s, e int) { emit(s, e, counts[s/chunk]) })
	}
	return total
}
