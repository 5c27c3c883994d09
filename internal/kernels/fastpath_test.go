package kernels

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"github.com/adamant-db/adamant/internal/vec"
)

// Equivalence tests for the typed kernel loops: every filter path against
// the CmpOp.Matches reference, and the worker-local hash pre-aggregation
// against a single-threaded map.

// filterOps is every comparison operator plus two unknown ones, which must
// match nothing.
var filterOps = []CmpOp{CmpLt, CmpLe, CmpGt, CmpGe, CmpEq, CmpNe, CmpBetween, CmpOp(7), CmpOp(-1)}

// filterBounds are the predicate constants around every overflow edge of
// the range normalization, for both column widths.
var filterBounds = []int64{
	math.MinInt64, math.MaxInt64, math.MinInt32 - 1, math.MaxInt32 + 1,
	math.MinInt32, math.MaxInt32, -1, 0, 5,
}

// filterData returns n int64 values cycling through the type extremes, the
// int32 edges and the neighbours of lo and hi, then a pseudo-random tail.
func filterData(n int, lo, hi int64) []int64 {
	edges := []int64{
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
		math.MinInt32 - 1, math.MinInt32, math.MaxInt32, math.MaxInt32 + 1,
		-1, 0, 1, lo - 1, lo, lo + 1, hi - 1, hi, hi + 1,
	}
	out := make([]int64, n)
	x := uint64(lo) ^ uint64(hi)<<1 ^ uint64(n)
	for i := range out {
		if i < len(edges) {
			out[i] = edges[i]
			continue
		}
		x = x*6364136223846793005 + 1442695040888963407
		out[i] = edges[x>>60%uint64(len(edges))] + int64(x>>62) - 1
	}
	return out
}

// narrow clamps values into int32 so the i32 paths see the same edges.
func narrow(in []int64) []int32 {
	out := make([]int32, len(in))
	for i, v := range in {
		out[i] = int32(max(math.MinInt32, min(math.MaxInt32, v)))
	}
	return out
}

// checkBitmap compares a filter bitmap with want and requires every bit
// beyond the logical length to be clear, although the buffer was poisoned
// with ones before the launch.
func checkBitmap(t *testing.T, what string, out vec.Vector, want func(i int) bool) {
	t.Helper()
	n := out.Len()
	for i := 0; i < n; i++ {
		if out.Bit(i) != want(i) {
			t.Fatalf("%s: bit %d = %v, want %v", what, i, out.Bit(i), want(i))
		}
	}
	if words := out.Words(); n%64 != 0 {
		if tail := words[len(words)-1] >> uint(n%64); tail != 0 {
			t.Fatalf("%s: tail bits beyond %d set: %#x", what, n, tail)
		}
	}
}

// poisonedBits returns an n-bit bitmap with every storage bit set.
func poisonedBits(n int) vec.Vector {
	out := vec.New(vec.Bits, n)
	words := out.Words()
	for i := range words {
		words[i] = ^uint64(0)
	}
	return out
}

// checkFilterPaths runs one predicate over data through every filter
// path — filter_bitmap_i64, filter_bitmap_i32, filter_pos_i32, and the
// fused dense and selection-refine paths over both widths — and compares
// each with CmpOp.Matches.
func checkFilterPaths(t *testing.T, op CmpOp, lo, hi int64, data []int64) {
	t.Helper()
	n := len(data)
	d32 := narrow(data)
	params := []int64{int64(op), lo, hi}
	match64 := func(i int) bool { return op.Matches(data[i], lo, hi) }
	match32 := func(i int) bool { return op.Matches(int64(d32[i]), lo, hi) }
	what := fmt.Sprintf("%v(%d,%d) n=%d", op, lo, hi, n)

	out := poisonedBits(n)
	if err := FilterBitmapI64.Fn(testCtx, []vec.Vector{vec.FromInt64(data), out}, params); err != nil {
		t.Fatal(err)
	}
	checkBitmap(t, what+" i64", out, match64)

	out = poisonedBits(n)
	if err := FilterBitmapI32.Fn(testCtx, []vec.Vector{vec.FromInt32(d32), out}, params); err != nil {
		t.Fatal(err)
	}
	checkBitmap(t, what+" i32", out, match32)

	var want32 []int64
	for i := range d32 {
		if match32(i) {
			want32 = append(want32, int64(i))
		}
	}
	pos := vec.New(vec.Int32, n)
	count := vec.New(vec.Int64, 1)
	if err := FilterPosI32.Fn(testCtx, []vec.Vector{vec.FromInt32(d32), pos, count}, params); err != nil {
		t.Fatal(err)
	}
	got := make([]int64, count.I64()[0])
	for i := range got {
		got[i] = int64(pos.I32()[i])
	}
	checkRows(t, what+" filter_pos", got, want32)

	// Fused: column 0 is the filtered column, column 1 holds the row index
	// (the map output) and i%3, whose nonzero rows a leading predicate
	// keeps so the operator under test runs on the refine path.
	rowIdx := make([]int64, n)
	mod3 := make([]int32, n)
	for i := range rowIdx {
		rowIdx[i] = int64(i)
		mod3[i] = int32(i % 3)
	}
	for _, col := range []struct {
		name  string
		v     vec.Vector
		match func(int) bool
	}{{"i64", vec.FromInt64(data), match64}, {"i32", vec.FromInt32(d32), match32}} {
		var dense, refined []int64
		for i := 0; i < n; i++ {
			if col.match(i) {
				dense = append(dense, int64(i))
				if i%3 != 0 {
					refined = append(refined, int64(i))
				}
			}
		}
		args := []vec.Vector{col.v, vec.FromInt64(rowIdx), vec.FromInt32(mod3)}
		checkRows(t, what+" fused dense "+col.name, fusedRows(t, args, []int64{1, 0, int64(op), lo, hi}), dense)
		checkRows(t, what+" fused sel "+col.name, fusedRows(t, args,
			[]int64{2, 2, int64(CmpNe), 0, 0, 0, int64(op), lo, hi}), refined)
	}
}

// fusedRows runs fused_filter_mat with the given predicate prefix over
// args, mapping to column 1 (the row index), and returns the survivors.
func fusedRows(t *testing.T, args []vec.Vector, preds []int64) []int64 {
	t.Helper()
	n := args[0].Len()
	out := vec.New(vec.Int64, n)
	count := vec.New(vec.Int64, 1)
	params := append(append([]int64{}, preds...), FusedMapCol, 1, 0, 0)
	if err := FusedFilterMat.Fn(testCtx, append(append([]vec.Vector{}, args...), out, count), params); err != nil {
		t.Fatal(err)
	}
	return out.I64()[:count.I64()[0]]
}

func checkRows(t *testing.T, what string, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d (%v vs %v)", what, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d = %d, want %d", what, i, got[i], want[i])
		}
	}
}

// TestFilterRangeEquivalence checks every operator, including unknown
// ones and empty ranges (lo > hi), at the int32 and int64 overflow edges,
// over lengths around one bitmap word, on every filter path.
func TestFilterRangeEquivalence(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65} {
		for _, op := range filterOps {
			for _, lo := range filterBounds {
				his := []int64{lo}
				if op == CmpBetween {
					his = filterBounds
				}
				for _, hi := range his {
					checkFilterPaths(t, op, lo, hi, filterData(n, lo, hi))
				}
			}
		}
	}
}

// TestFilterColCmpEquivalence checks the column-vs-column filter against
// CmpOp.Matches(a, b, b) for every operator at the int32 extremes, where
// a-b overflows int32.
func TestFilterColCmpEquivalence(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65} {
		a := narrow(filterData(n, math.MinInt32, math.MaxInt32))
		b := make([]int32, n)
		for i := range b {
			b[i] = a[(i*7+3)%n]
			if i%5 == 0 {
				b[i] = a[i]
			}
		}
		for _, op := range filterOps {
			out := poisonedBits(n)
			err := FilterBitmapColCmpI32.Fn(testCtx, []vec.Vector{vec.FromInt32(a), vec.FromInt32(b), out}, []int64{int64(op)})
			if err != nil {
				t.Fatal(err)
			}
			checkBitmap(t, fmt.Sprintf("colcmp %v n=%d", op, n), out, func(i int) bool {
				return op.Matches(int64(a[i]), int64(b[i]), int64(b[i]))
			})
		}
	}
}

// FuzzFilterRange checks the same property as TestFilterRangeEquivalence
// for arbitrary operators, bounds and data.
func FuzzFilterRange(f *testing.F) {
	f.Add(int64(CmpNe), int64(5), int64(0), []byte{5, 0, 0, 0, 0, 0, 0, 0, 6})
	f.Add(int64(CmpLt), int64(math.MinInt64), int64(0), []byte{})
	f.Add(int64(CmpGt), int64(math.MaxInt64), int64(0), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add(int64(CmpBetween), int64(math.MinInt32-1), int64(math.MaxInt32+1), make([]byte, 8*65))
	f.Add(int64(CmpBetween), int64(3), int64(-3), []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, op, lo, hi int64, raw []byte) {
		data := make([]int64, len(raw)/8)
		for i := range data {
			data[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		checkFilterPaths(t, CmpOp(op), lo, hi, data)
	})
}

// hashAggRef is a single-threaded group-by, sorted by key the way
// hash_extract emits it.
func hashAggRef(op AggOp, keys []int32, vals []int64) (outK, outV []int64) {
	acc := map[int64]int64{}
	for i, k := range keys {
		cur, ok := acc[int64(k)]
		if !ok {
			cur = op.identity()
		}
		v := int64(1)
		if op != AggCount {
			v = vals[i]
		}
		acc[int64(k)] = op.combine2(cur, v)
	}
	for k := range acc {
		outK = append(outK, k)
	}
	sort.Slice(outK, func(i, j int) bool { return outK[i] < outK[j] })
	for _, k := range outK {
		outV = append(outV, acc[k])
	}
	return outK, outV
}

// hashAggData draws rows with keys over distinct values (negative ones
// included) and values large enough that sums wrap.
func hashAggData(rows, distinct int, seed uint64) ([]int32, []int64) {
	keys := make([]int32, rows)
	vals := make([]int64, rows)
	x := seed
	for i := range keys {
		x = x*6364136223846793005 + 1442695040888963407
		keys[i] = int32((x>>33)%uint64(distinct)) - int32(distinct/2)
		vals[i] = int64(x) >> (x >> 58)
	}
	return keys, vals
}

// TestHashAggPreAggEquivalence checks that the worker-local pre-aggregation
// leaves hash_extract output identical to a single-threaded reference, for
// every aggregate, group counts on both sides of the private table size,
// several worker counts, and several chunks accumulating into one table.
func TestHashAggPreAggEquivalence(t *testing.T) {
	const chunks, rows = 3, 7000
	for _, op := range []AggOp{AggSum, AggCount, AggMin, AggMax} {
		for _, distinct := range []int{1, 4, 64, 65, 10000} {
			keys, vals := hashAggData(chunks*rows, distinct, uint64(distinct)*31+uint64(op))
			wantK, wantV := hashAggRef(op, keys, vals)
			for _, workers := range []int{1, 2, 8} {
				kernel := HashAggI32I64
				if op == AggCount && workers != 2 {
					kernel = HashAggCountI32 // both COUNT kernels are covered
				}
				ctx := &Ctx{Workers: workers}
				table := vec.New(vec.Int64, HashTableLen(distinct))
				if err := HashTableInit.Fn(ctx, []vec.Vector{table}, []int64{op.identity()}); err != nil {
					t.Fatal(err)
				}
				for c := 0; c < chunks; c++ {
					k := vec.FromInt32(keys[c*rows : (c+1)*rows])
					args := []vec.Vector{k, vec.FromInt64(vals[c*rows : (c+1)*rows]), table}
					params := []int64{int64(op), int64(distinct)}
					if kernel == HashAggCountI32 {
						args, params = []vec.Vector{k, table}, []int64{int64(distinct)}
					}
					if err := kernel.Fn(ctx, args, params); err != nil {
						t.Fatalf("%s %v distinct=%d workers=%d: %v", kernel.Name, op, distinct, workers, err)
					}
				}
				outK := vec.New(vec.Int64, distinct)
				outV := vec.New(vec.Int64, distinct)
				count := vec.New(vec.Int64, 1)
				if err := HashExtract.Fn(ctx, []vec.Vector{table, outK, outV, count}, nil); err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("%s %v distinct=%d workers=%d", kernel.Name, op, distinct, workers)
				n := count.I64()[0]
				checkRows(t, what+" keys", outK.I64()[:n], wantK)
				checkRows(t, what+" values", outV.I64()[:n], wantV)
			}
		}
	}
}

// TestHashAggTableFull checks that a table undersized for the build side
// still fails with errTableFull when the groups fit in the private
// pre-aggregation tables and only reach the shared table at the flush.
func TestHashAggTableFull(t *testing.T) {
	keys := make([]int32, 400)
	for i := range keys {
		keys[i] = int32(i % 40)
	}
	for _, workers := range []int{1, 2, 8} {
		ctx := &Ctx{Workers: workers}
		for _, k := range []*Kernel{HashAggI32I64, HashAggCountI32} {
			table := vec.New(vec.Int64, HashTableLen(1))
			args := []vec.Vector{vec.FromInt32(keys), table}
			params := []int64{0}
			if k == HashAggI32I64 {
				args = []vec.Vector{args[0], vec.FromInt64(make([]int64, len(keys))), table}
				params = []int64{int64(AggSum), 0}
			}
			if err := HashTableInit.Fn(ctx, []vec.Vector{table}, nil); err != nil {
				t.Fatal(err)
			}
			if err := k.Fn(ctx, args, params); !errors.Is(err, errTableFull) {
				t.Errorf("%s workers=%d: err = %v, want errTableFull", k.Name, workers, err)
			}
		}
	}
}

// TestMaterializePosBadPositionsRace puts out-of-range positions in every
// worker's span, so several workers report an error at once. Run under
// -race it guards the error capture.
func TestMaterializePosBadPositionsRace(t *testing.T) {
	values := vec.FromInt64([]int64{1, 2, 3})
	pos := make([]int32, 64)
	for i := range pos {
		pos[i] = int32(i%4) * 2 // 0, 2, 4 (bad), 6 (bad)
	}
	for round := 0; round < 20; round++ {
		err := MaterializePosI64.Fn(&Ctx{Workers: 8}, []vec.Vector{values, vec.FromInt32(pos), vec.New(vec.Int64, len(pos))}, nil)
		if !errors.Is(err, ErrBadArgs) {
			t.Fatalf("round %d: err = %v, want ErrBadArgs", round, err)
		}
	}
}
