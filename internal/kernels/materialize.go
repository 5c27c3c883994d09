package kernels

import (
	"fmt"
	"math/bits"
	"sync"

	"github.com/adamant-db/adamant/internal/vclock"
	"github.com/adamant-db/adamant/internal/vec"
)

// materializeCost prices late materialization as a scan of the values and
// bitmap scaled by the SDK's extraction penalty: GPUs pay for cooperative
// bit extraction across threads (Figure 9(b) shows them dropping to ~30%
// of bitmap-only throughput); CPUs, which schedule 32-value runs per
// thread, extract almost for free.
func materializeCost(m CostModel, args []vec.Vector, _ []int64) vclock.Duration {
	in := args[0].Bytes() + args[1].Bytes()
	base := m.SDK.Stream(m.Spec, in)
	pen := m.SDK.MaterializePenalty
	if pen <= 0 {
		pen = 1
	}
	return vclock.Duration(float64(base) * pen)
}

// MaterializeBitmapI32 compacts the rows selected by a bitmap into a dense
// int32 column (the MATERIALIZE primitive). The survivor count is written
// to outCount[0]. Args: values(I32), bitmap(Bits), out(I32), outCount(I64
// len 1).
var MaterializeBitmapI32 = register(&Kernel{
	Name:   "materialize_bitmap_i32",
	NArgs:  4,
	Source: "__kernel materialize_bitmap_i32(v, bm, out, count) { /* compaction */ }",
	Fn: func(ctx *Ctx, args []vec.Vector, _ []int64) error {
		return materializeBitmap(ctx, args[0].I32(), args[1], args[2].I32(), args[3].I64())
	},
	Cost: materializeCost,
})

// MaterializeBitmapI64 is MaterializeBitmapI32 for int64 value columns.
// Args: values(I64), bitmap(Bits), out(I64), outCount(I64 len 1).
var MaterializeBitmapI64 = register(&Kernel{
	Name:   "materialize_bitmap_i64",
	NArgs:  4,
	Source: "__kernel materialize_bitmap_i64(v, bm, out, count) { /* compaction */ }",
	Fn: func(ctx *Ctx, args []vec.Vector, _ []int64) error {
		return materializeBitmap(ctx, args[0].I64(), args[1], args[2].I64(), args[3].I64())
	},
	Cost: materializeCost,
})

// materializeBitmap runs the shared compaction logic: a word-popcount prefix
// pass to find scatter bases, then a parallel extract of the set bits.
func materializeBitmap[T integer](ctx *Ctx, values []T, bm vec.Vector, out []T, outCount []int64) error {
	n := len(values)
	if bm.Type() != vec.Bits {
		return fmt.Errorf("%w: materialize bitmap argument must be Bits", ErrBadArgs)
	}
	if bm.Len() != n {
		return fmt.Errorf("%w: bitmap covers %d rows, values have %d", ErrBadArgs, bm.Len(), n)
	}
	if len(outCount) != 1 {
		return fmt.Errorf("%w: materialize count buffer must have 1 element", ErrBadArgs)
	}
	words := bm.Words()
	nw := (n + 63) / 64
	base := make([]int32, nw+1)
	for w := 0; w < nw; w++ {
		base[w+1] = base[w] + int32(bits.OnesCount64(bitmapWord(words, w, n)))
	}
	total := int(base[nw])
	if total > len(out) {
		return fmt.Errorf("%w: materialize output holds %d values, need %d", ErrBadArgs, len(out), total)
	}
	parallelRange(ctx, n, 64, func(s, e int) {
		for w := s / 64; w*64 < e; w++ {
			at := int(base[w])
			for ww := bitmapWord(words, w, n); ww != 0; ww &= ww - 1 {
				out[at] = values[w*64+bits.TrailingZeros64(ww)]
				at++
			}
		}
	})
	outCount[0] = int64(total)
	return nil
}

// bitmapWord returns word w of an n-bit bitmap with the bits beyond n
// cleared.
func bitmapWord(words []uint64, w, n int) uint64 {
	if rest := n - 64*w; rest < 64 {
		return words[w] & (1<<uint(rest) - 1)
	}
	return words[w]
}

// MaterializePosI32 gathers values by an explicit position list (the
// MATERIALIZE_POSITION primitive). Every position must be in range for the
// value column. Args: values(I32), positions(I32), out(I32).
var MaterializePosI32 = register(&Kernel{
	Name:   "materialize_pos_i32",
	NArgs:  3,
	Source: "__kernel materialize_pos_i32(v, pos, out) { out[i] = v[pos[i]]; }",
	Fn: func(ctx *Ctx, args []vec.Vector, _ []int64) error {
		return materializePos(ctx, args[0].I32(), args[1].I32(), args[2].I32())
	},
	Cost: gatherCost,
})

// MaterializePosI64 is MaterializePosI32 for int64 value columns. Args:
// values(I64), positions(I32), out(I64).
var MaterializePosI64 = register(&Kernel{
	Name:   "materialize_pos_i64",
	NArgs:  3,
	Source: "__kernel materialize_pos_i64(v, pos, out) { out[i] = v[pos[i]]; }",
	Fn: func(ctx *Ctx, args []vec.Vector, _ []int64) error {
		return materializePos(ctx, args[0].I64(), args[1].I32(), args[2].I64())
	},
	Cost: gatherCost,
})

// materializePos gathers values by position. Workers that meet an
// out-of-range position stop, and the first such error is reported.
func materializePos[T integer](ctx *Ctx, values []T, pos []int32, out []T) error {
	if len(out) < len(pos) {
		return fmt.Errorf("%w: materialize_pos output holds %d, need %d", ErrBadArgs, len(out), len(pos))
	}
	var bad struct {
		sync.Mutex
		err error
	}
	parallelRange(ctx, len(pos), 1, func(s, e int) {
		for i, p := range pos[s:e] {
			if uint(p) >= uint(len(values)) {
				bad.Lock()
				if bad.err == nil {
					bad.err = fmt.Errorf("%w: position %d out of %d values", ErrBadArgs, p, len(values))
				}
				bad.Unlock()
				return
			}
			out[s+i] = values[p]
		}
	})
	return bad.err
}

func gatherCost(m CostModel, args []vec.Vector, _ []int64) vclock.Duration {
	// Sequential read of the position list, random gather of the values.
	return m.SDK.Stream(m.Spec, args[1].Bytes()) + m.SDK.Random(m.Spec, args[2].Bytes())
}
