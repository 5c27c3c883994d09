package kernels

import (
	"fmt"
	"math/bits"

	"github.com/adamant-db/adamant/internal/vclock"
	"github.com/adamant-db/adamant/internal/vec"
)

// PrefixSumI32 computes the exclusive prefix sum of an int32 column (the
// PREFIX_SUM primitive for 0/1 sequences or sorted run lengths). Args:
// in(I32), out(I32).
var PrefixSumI32 = register(&Kernel{
	Name:   "prefix_sum_i32",
	NArgs:  2,
	Source: "__kernel prefix_sum_i32(in, out) { /* blockwise scan + fixup */ }",
	Fn: func(ctx *Ctx, args []vec.Vector, _ []int64) error {
		in, out := args[0].I32(), args[1].I32()
		if err := sameLen(len(in), len(out)); err != nil {
			return err
		}
		scanExclusiveI32(ctx, in, out)
		return nil
	},
	Cost: prefixCost,
})

// PrefixSumBits computes, for every input row, the number of set bits
// strictly before it in a bitmap. The result is the scatter offset table the
// SORT_AGG and MATERIALIZE primitives consume. Args: in(Bits), out(I32).
var PrefixSumBits = register(&Kernel{
	Name:   "prefix_sum_bits",
	NArgs:  2,
	Source: "__kernel prefix_sum_bits(bm, out) { /* popcount scan */ }",
	Fn: func(ctx *Ctx, args []vec.Vector, _ []int64) error {
		bm := args[0]
		out := args[1].I32()
		if bm.Type() != vec.Bits {
			return fmt.Errorf("%w: prefix_sum_bits input must be Bits", ErrBadArgs)
		}
		if bm.Len() != len(out) {
			return fmt.Errorf("%w: prefix_sum_bits length mismatch %d vs %d", ErrBadArgs, bm.Len(), len(out))
		}
		words := bm.Words()
		n := bm.Len()

		// Phase 1: popcount per word (sequentially cheap), then exclusive
		// scan over word counts.
		nw := (n + 63) / 64
		wordBase := make([]int32, nw+1)
		for w := 0; w < nw; w++ {
			wordBase[w+1] = wordBase[w] + int32(bits.OnesCount64(words[w]))
		}

		// Phase 2: expand within words in parallel.
		parallelRange(ctx, n, 64, func(s, e int) {
			for i := s; i < e; i++ {
				w := i / 64
				mask := uint64(1)<<uint(i%64) - 1
				out[i] = wordBase[w] + int32(bits.OnesCount64(words[w]&mask))
			}
		})
		return nil
	},
	Cost: prefixCost,
})

func prefixCost(m CostModel, args []vec.Vector, _ []int64) vclock.Duration {
	// Scans read the input twice (block scan + fixup) and write once.
	var bytes int64
	for _, a := range args {
		bytes += a.Bytes()
	}
	return m.SDK.Stream(m.Spec, 2*bytes)
}

// scanExclusiveI32 computes an exclusive prefix sum with a blockwise
// parallel scan: per-span sums first, then a span-base fixup pass.
func scanExclusiveI32(ctx *Ctx, in, out []int32) {
	chunk, nSpans := spans(ctx, len(in))
	sums := make([]int32, nSpans+1)
	parallelRange(ctx, len(in), 1, func(s, e int) {
		var acc int32
		for i := s; i < e; i++ {
			out[i] = acc
			acc += in[i]
		}
		sums[s/chunk+1] = acc
	})
	for i := 1; i <= nSpans; i++ {
		sums[i] += sums[i-1]
	}
	parallelRange(ctx, len(in), 1, func(s, e int) {
		base := sums[s/chunk]
		for i := s; i < e; i++ {
			out[i] += base
		}
	})
}
