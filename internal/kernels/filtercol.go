package kernels

import (
	"fmt"

	"github.com/adamant-db/adamant/internal/vec"
)

// FilterBitmapColCmpI32 compares two int32 columns element-wise and writes
// a bitmap of rows where a[i] op b[i] holds — the column-vs-column predicate
// form needed by TPC-H Q4's l_commitdate < l_receiptdate. Args: a(I32),
// b(I32), out(Bits); params: op.
var FilterBitmapColCmpI32 = register(&Kernel{
	Name:    "filter_bitmap_colcmp_i32",
	NArgs:   3,
	NParams: 1,
	Source:  "__kernel filter_bitmap_colcmp_i32(a, b, out, op) { out.bit[i] = cmp(a[i], b[i]); }",
	Fn: func(ctx *Ctx, args []vec.Vector, params []int64) error {
		a, b := args[0].I32(), args[1].I32()
		out := args[2]
		if len(a) != len(b) {
			return fmt.Errorf("%w: colcmp inputs %d vs %d", ErrBadArgs, len(a), len(b))
		}
		if out.Type() != vec.Bits || out.Len() != len(a) {
			return fmt.Errorf("%w: colcmp output %s for %d inputs", ErrBadArgs, out, len(a))
		}
		// a op b is (a-b) op 0; the difference of two int32s is exact in
		// int64, so the comparison goes through the shared range form.
		p := newRangePred(CmpOp(params[0]), 0, 0)
		words := out.Words()
		parallelRange(ctx, len(a), 64, func(s, e int) {
			var d [64]int64
			for i := s; i < e; i += 64 {
				n := min(64, e-i)
				for j := range d[:n] {
					d[j] = int64(a[i+j]) - int64(b[i+j])
				}
				words[i/64] = matchWord(p, d[:n])
			}
		})
		return nil
	},
	Cost: streamCost,
})
