package kernels

import (
	"testing"

	"github.com/adamant-db/adamant/internal/vec"
)

// Per-kernel microbenchmarks sized like one scan-cold chunk of the
// repository benchmark (ChunkElems 65,536 = 2^25 × 1/512), run with the
// engine's default worker count (GOMAXPROCS). They reproduce a per-kernel
// regression without the end-to-end run:
//
//	go test -run '^$' -bench . ./internal/kernels

const benchChunkRows = 1 << 16

// benchInt32 returns n deterministic pseudo-random values in [0, mod).
func benchInt32(n int, mod, seed uint64) []int32 {
	out := make([]int32, n)
	x := seed
	for i := range out {
		x = x*6364136223846793005 + 1442695040888963407
		out[i] = int32((x >> 33) % mod)
	}
	return out
}

func benchRun(b *testing.B, k *Kernel, ctx *Ctx, args []vec.Vector, params []int64) {
	b.Helper()
	if err := k.Fn(ctx, args, params); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFilterBitmapI32 is a one-year shipdate window over seven years
// of dates, as in TPC-H Q6.
func BenchmarkFilterBitmapI32(b *testing.B) {
	in := vec.FromInt32(benchInt32(benchChunkRows, 2557, 1))
	out := vec.New(vec.Bits, benchChunkRows)
	params := []int64{int64(CmpBetween), benchShipLo, benchShipHi}
	ctx := &Ctx{}
	b.SetBytes(4 * benchChunkRows)
	for i := 0; i < b.N; i++ {
		benchRun(b, FilterBitmapI32, ctx, []vec.Vector{in, out}, params)
	}
}

// BenchmarkMaterializeBitmapI32 compacts the rows the Q6 shipdate window
// selects (about 14%).
func BenchmarkMaterializeBitmapI32(b *testing.B) {
	ctx := &Ctx{}
	bm := vec.New(vec.Bits, benchChunkRows)
	benchRun(b, FilterBitmapI32, ctx, []vec.Vector{vec.FromInt32(benchInt32(benchChunkRows, 2557, 1)), bm},
		[]int64{int64(CmpBetween), benchShipLo, benchShipHi})
	values := vec.FromInt32(benchInt32(benchChunkRows, 99000, 2))
	out := vec.New(vec.Int32, benchChunkRows)
	count := vec.New(vec.Int64, 1)
	b.SetBytes(4 * benchChunkRows)
	for i := 0; i < b.N; i++ {
		benchRun(b, MaterializeBitmapI32, ctx, []vec.Vector{values, bm, out, count}, nil)
	}
}

// BenchmarkHashAgg sums an int64 column by an int32 key: four groups as in
// TPC-H Q1, and 64k groups, where most keys miss the private tables.
func BenchmarkHashAgg(b *testing.B) {
	for _, bc := range []struct {
		name   string
		groups int
	}{{"groups-4", 4}, {"groups-64k", 1 << 16}} {
		b.Run(bc.name, func(b *testing.B) {
			ctx := &Ctx{}
			keys := vec.FromInt32(benchInt32(benchChunkRows, uint64(bc.groups), 3))
			vals := make([]int64, benchChunkRows)
			for i, v := range benchInt32(benchChunkRows, 1<<20, 4) {
				vals[i] = int64(v)
			}
			table := vec.New(vec.Int64, HashTableLen(bc.groups))
			benchRun(b, HashTableInit, ctx, []vec.Vector{table}, nil)
			args := []vec.Vector{keys, vec.FromInt64(vals), table}
			params := []int64{int64(AggSum), int64(bc.groups)}
			b.SetBytes(12 * benchChunkRows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchRun(b, HashAggI32I64, ctx, args, params)
			}
		})
	}
}

// BenchmarkHashBuildSet inserts a chunk of distinct keys into an empty set,
// the build side of TPC-H Q4's semi-join.
func BenchmarkHashBuildSet(b *testing.B) {
	ctx := &Ctx{}
	keys := make([]int32, benchChunkRows)
	for i := range keys {
		keys[i] = int32(i) * 7
	}
	table := vec.New(vec.Int64, HashTableLen(benchChunkRows))
	args := []vec.Vector{vec.FromInt32(keys), table}
	b.SetBytes(4 * benchChunkRows)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		benchRun(b, HashTableInit, ctx, []vec.Vector{table}, nil)
		b.StartTimer()
		benchRun(b, HashBuildSetI32, ctx, args, nil)
	}
}
