package kernels

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"github.com/adamant-db/adamant/internal/vclock"
	"github.com/adamant-db/adamant/internal/vec"
)

// Hash tables are stored in plain int64 device buffers as interleaved
// (key, payload) slot pairs with linear probing, exactly the single shared
// global-memory table with atomic insertion the paper profiles in Figure 9.
// The empty-slot sentinel is math.MinInt64; HashTableInit must run once
// before the first build chunk.

// hashEmpty marks a free slot.
const hashEmpty = math.MinInt64

// HashTableLen returns the int64 element count of a table buffer sized for
// n distinct keys at 50% maximum load.
func HashTableLen(n int) int {
	slots := 16
	for slots < 2*n {
		slots <<= 1
	}
	return 2 * slots
}

func hashSlot(key int64, slots int) int {
	h := uint64(key) * 0x9E3779B97F4A7C15
	return int(h & uint64(slots-1))
}

func tableOf(v vec.Vector) ([]int64, int, error) {
	t := v.I64()
	if len(t) == 0 || len(t)%2 != 0 || (len(t)/2)&(len(t)/2-1) != 0 {
		return nil, 0, fmt.Errorf("%w: hash table length %d is not 2*power-of-two", ErrBadArgs, len(t))
	}
	return t, len(t) / 2, nil
}

// HashTableInit fills a table buffer with empty slots. Payload cells start
// at the optional params[0] (pass the aggregate identity before HASH_AGG
// min/max builds; defaults to 0). Args: table(I64); params: [payloadInit].
var HashTableInit = register(&Kernel{
	Name:   "hash_table_init",
	NArgs:  1,
	Source: "__kernel hash_table_init(t, init) { t.key[s] = EMPTY; t.val[s] = init; }",
	Fn: func(ctx *Ctx, args []vec.Vector, params []int64) error {
		t, slots, err := tableOf(args[0])
		if err != nil {
			return err
		}
		var payloadInit int64
		if len(params) > 0 {
			payloadInit = params[0]
		}
		parallelRange(ctx, slots, 1, func(s, e int) {
			for i := s; i < e; i++ {
				t[2*i] = hashEmpty
				t[2*i+1] = payloadInit
			}
		})
		return nil
	},
	Cost: streamCost,
})

// buildCost prices the contended insertion path of HASH_BUILD / HASH_AGG:
// one atomic CAS per input row plus scattered writes. Contention grows with
// the shared global table's size — larger tables thrash more cache lines —
// which is the degradation Figure 9(d) shows.
func buildCost(m CostModel, n, slots int64, extra float64) vclock.Duration {
	contention := 1 + extra
	if slots > 1<<12 {
		doublings := math.Log2(float64(slots) / float64(int64(1)<<12))
		contention += m.SDK.BuildScalePenalty * doublings
	}
	return m.SDK.Atomic(m.Spec, n, contention) + m.SDK.Random(m.Spec, 16*n)
}

// insert performs a lock-free linear-probing insert and returns the
// payload cell index of key's slot, found or claimed. It returns -1 when
// the table is full (every slot probed and occupied by other keys), which
// kernels surface as an undersized-table error rather than spinning.
func insert(t []int64, slots int, key int64) int {
	slot := hashSlot(key, slots)
	for probes := 0; probes < slots; probes++ {
		k := atomic.LoadInt64(&t[2*slot])
		if k == key {
			return 2*slot + 1
		}
		if k == hashEmpty {
			if atomic.CompareAndSwapInt64(&t[2*slot], hashEmpty, key) {
				return 2*slot + 1
			}
			probes-- // lost the race; re-read this slot
			continue
		}
		slot = (slot + 1) & (slots - 1)
	}
	return -1
}

// errTableFull is the shared overflow error for insertion kernels.
var errTableFull = fmt.Errorf("%w: hash table full (undersized for build side)", ErrBadArgs)

// lookup returns the payload cell index for key, or -1 if absent.
func lookup(t []int64, slots int, key int64) int {
	slot := hashSlot(key, slots)
	for probes := 0; probes < slots; probes++ {
		k := atomic.LoadInt64(&t[2*slot])
		if k == key {
			return 2*slot + 1
		}
		if k == hashEmpty {
			return -1
		}
		slot = (slot + 1) & (slots - 1)
	}
	return -1
}

// HashBuildPKI32 populates a table mapping each key to its global row
// position (the HASH_BUILD primitive for a primary-key build side). The
// base parameter is the chunk's global row offset, so chunked builds
// produce global positions. Duplicate keys keep the last writer. Args:
// keys(I32), table(I64); params: base.
var HashBuildPKI32 = register(&Kernel{
	Name:    "hash_build_pk_i32",
	NArgs:   2,
	NParams: 1,
	Source:  "__kernel hash_build_pk_i32(k, t, base) { insert(t, k[i], base+i); }",
	Fn: func(ctx *Ctx, args []vec.Vector, params []int64) error {
		keys := args[0].I32()
		t, slots, err := tableOf(args[1])
		if err != nil {
			return err
		}
		base := params[0]
		var full atomic.Bool
		parallelRange(ctx, len(keys), 1, func(s, e int) {
			for i := s; i < e; i++ {
				p := insert(t, slots, int64(keys[i]))
				if p < 0 {
					full.Store(true)
					return
				}
				atomic.StoreInt64(&t[p], base+int64(i))
			}
		})
		if full.Load() {
			return errTableFull
		}
		return nil
	},
	Cost: func(m CostModel, args []vec.Vector, _ []int64) vclock.Duration {
		return buildCost(m, int64(args[0].Len()), int64(args[1].Len()/2), 0)
	},
})

// HashBuildSetI32 populates a key set (payload 1), the build side of a
// semi-join such as the EXISTS subquery of TPC-H Q4. Args: keys(I32),
// table(I64).
var HashBuildSetI32 = register(&Kernel{
	Name:   "hash_build_set_i32",
	NArgs:  2,
	Source: "__kernel hash_build_set_i32(k, t) { insert(t, k[i], 1); }",
	Fn: func(ctx *Ctx, args []vec.Vector, _ []int64) error {
		keys := args[0].I32()
		t, slots, err := tableOf(args[1])
		if err != nil {
			return err
		}
		var full atomic.Bool
		parallelRange(ctx, len(keys), 1, func(s, e int) {
			for i := s; i < e; i++ {
				p := insert(t, slots, int64(keys[i]))
				if p < 0 {
					full.Store(true)
					return
				}
				atomic.StoreInt64(&t[p], 1)
			}
		})
		if full.Load() {
			return errTableFull
		}
		return nil
	},
	Cost: func(m CostModel, args []vec.Vector, _ []int64) vclock.Duration {
		return buildCost(m, int64(args[0].Len()), int64(args[1].Len()/2), 0)
	},
})

// HashProbeI32 probes the table with a key column and emits join pairs:
// outLeft gets the global probe-side position, outRight the matched build
// payload (the JOINLEFT/JOINRIGHT outputs of Table I). Pair order is
// unspecified, as with competing GPU threads. The pair count goes to
// outCount[0]. Args: keys(I32), table(I64), outLeft(I32), outRight(I64),
// outCount(I64 len 1); params: base.
var HashProbeI32 = register(&Kernel{
	Name:    "hash_probe_i32",
	NArgs:   5,
	NParams: 1,
	Source:  "__kernel hash_probe_i32(k, t, l, r, c, base) { /* probe + atomic append */ }",
	Fn: func(ctx *Ctx, args []vec.Vector, params []int64) error {
		keys := args[0].I32()
		t, slots, err := tableOf(args[1])
		if err != nil {
			return err
		}
		outLeft, outRight, outCount := args[2].I32(), args[3].I64(), args[4].I64()
		if len(outCount) != 1 {
			return fmt.Errorf("%w: hash_probe count buffer must have 1 element", ErrBadArgs)
		}
		if len(outLeft) != len(outRight) {
			return fmt.Errorf("%w: hash_probe output pair lengths differ", ErrBadArgs)
		}
		base := params[0]
		var cursor int64
		var overflow atomic.Bool
		parallelRange(ctx, len(keys), 1, func(s, e int) {
			for i := s; i < e; i++ {
				p := lookup(t, slots, int64(keys[i]))
				if p < 0 {
					continue
				}
				at := atomic.AddInt64(&cursor, 1) - 1
				if at >= int64(len(outLeft)) {
					overflow.Store(true)
					return
				}
				outLeft[at] = int32(base + int64(i))
				outRight[at] = atomic.LoadInt64(&t[p])
			}
		})
		if overflow.Load() {
			return fmt.Errorf("%w: hash_probe output holds %d pairs, overflowed", ErrBadArgs, len(outLeft))
		}
		outCount[0] = cursor
		return nil
	},
	Cost: probeCost,
})

// HashProbeExistsI32 probes the table and marks matching probe rows in a
// bitmap, the semi-join form used by EXISTS subqueries. Args: keys(I32),
// table(I64), out(Bits).
var HashProbeExistsI32 = register(&Kernel{
	Name:   "hash_probe_exists_i32",
	NArgs:  3,
	Source: "__kernel hash_probe_exists_i32(k, t, bm) { bm.bit[i] = contains(t, k[i]); }",
	Fn: func(ctx *Ctx, args []vec.Vector, _ []int64) error {
		keys := args[0].I32()
		t, slots, err := tableOf(args[1])
		if err != nil {
			return err
		}
		out := args[2]
		if out.Type() != vec.Bits || out.Len() != len(keys) {
			return fmt.Errorf("%w: hash_probe_exists output %s for %d keys", ErrBadArgs, out, len(keys))
		}
		words := out.Words()
		parallelRange(ctx, len(keys), 64, func(s, e int) {
			for w := s / 64; w*64 < e; w++ {
				var bits uint64
				limit := (w + 1) * 64
				if limit > e {
					limit = e
				}
				for i := w * 64; i < limit; i++ {
					if lookup(t, slots, int64(keys[i])) >= 0 {
						bits |= 1 << uint(i%64)
					}
				}
				words[w] = bits
			}
		})
		return nil
	},
	Cost: probeCost,
})

func probeCost(m CostModel, args []vec.Vector, _ []int64) vclock.Duration {
	n := int64(args[0].Len())
	slots := int64(args[1].Len() / 2)
	// One random table access per probe; larger tables thrash caches, so
	// the same size scaling as builds applies, without the atomic path.
	contention := 1.0
	if slots > 1<<12 {
		contention += m.SDK.BuildScalePenalty * 0.8 * math.Log2(float64(slots)/float64(int64(1)<<12))
	}
	pen := m.SDK.ProbePenalty
	if pen <= 0 {
		pen = 1
	}
	return vclock.Duration(float64(m.SDK.Random(m.Spec, 16*n)) * contention * pen)
}

// HashAggI32I64 performs group-by aggregation of an int64 value column by
// an int32 key column into a shared table (the HASH_AGG primitive, a
// pipeline breaker). Accumulates across chunks. Args: keys(I32),
// values(I64), table(I64); params: op, groupsHint (used only by the cost
// model; pass 0 when unknown).
var HashAggI32I64 = register(&Kernel{
	Name:    "hash_agg_i32_i64",
	NArgs:   3,
	NParams: 2,
	Source:  "__kernel hash_agg_i32_i64(k, v, t, op) { slot = insert(t, k[i]); atomicAgg(t, slot, v[i]); }",
	Fn: func(ctx *Ctx, args []vec.Vector, params []int64) error {
		keys, values := args[0].I32(), args[1].I64()
		if err := sameLen(len(keys), len(values)); err != nil {
			return err
		}
		t, slots, err := tableOf(args[2])
		if err != nil {
			return err
		}
		return hashAgg(ctx, t, slots, AggOp(params[0]), keys, values)
	},
	Cost: hashAggCost,
})

// HashAggCountI32 counts rows per int32 key into a shared table. Args:
// keys(I32), table(I64); params: groupsHint.
var HashAggCountI32 = register(&Kernel{
	Name:    "hash_agg_count_i32",
	NArgs:   2,
	NParams: 1,
	Source:  "__kernel hash_agg_count_i32(k, t) { slot = insert(t, k[i]); atomicAdd(t, slot, 1); }",
	Fn: func(ctx *Ctx, args []vec.Vector, _ []int64) error {
		keys := args[0].I32()
		t, slots, err := tableOf(args[1])
		if err != nil {
			return err
		}
		return hashAgg(ctx, t, slots, AggCount, keys, nil)
	},
	Cost: func(m CostModel, args []vec.Vector, params []int64) vclock.Duration {
		return hashAggCost(m, args, params[:0])
	},
})

// atomicAgg folds the partial aggregate v into the payload cell with the
// correct atomic for op; a COUNT partial is a row count. Min/max require
// payload cells initialized to the aggregate identity (HashTableInit's
// payloadInit parameter).
func atomicAgg(t []int64, p int, op AggOp, v int64) {
	switch op {
	case AggSum, AggCount:
		atomic.AddInt64(&t[p], v)
	case AggMin:
		for {
			cur := atomic.LoadInt64(&t[p])
			if v >= cur || atomic.CompareAndSwapInt64(&t[p], cur, v) {
				return
			}
		}
	case AggMax:
		for {
			cur := atomic.LoadInt64(&t[p])
			if v <= cur || atomic.CompareAndSwapInt64(&t[p], cur, v) {
				return
			}
		}
	}
}

// Worker-private pre-aggregation: each worker folds its rows into a small
// private table and flushes it into the shared table once, so a handful
// of hot groups (TPC-H Q1 has four) cost one shared atomic per group and
// worker instead of one per row and never bounce a cache line between
// cores. The private table is two-way set associative: a key probes its
// home slot and that slot's neighbour, and goes straight to the shared
// table when both hold other keys.
const (
	preAggBits  = 6
	preAggSlots = 1 << preAggBits
	preAggBlock = 256 // rows probed before their values are folded
)

// hashAgg is the body of the HASH_AGG kernels; vals is nil for COUNT.
func hashAgg(ctx *Ctx, t []int64, slots int, op AggOp, keys []int32, vals []int64) error {
	var full atomic.Bool
	parallelRange(ctx, len(keys), 1, func(s, e int) {
		var v []int64
		if vals != nil {
			v = vals[s:e]
		}
		if !preAggregate(t, slots, op, keys[s:e], v) {
			full.Store(true)
		}
	})
	if full.Load() {
		return errTableFull
	}
	return nil
}

// preAggKeys holds the keys of a private pre-aggregation table.
type preAggKeys [preAggSlots]int64

// slot returns k's private slot, claiming a free one, or preAggSlots when
// both candidate slots hold other keys.
func (ks *preAggKeys) slot(k int64) int {
	s := int(uint64(k) * 0x9E3779B97F4A7C15 >> (64 - preAggBits))
	switch {
	case ks[s] == k:
	case ks[s] == hashEmpty:
		ks[s] = k
	case ks[s^1] == k:
		s ^= 1
	case ks[s^1] == hashEmpty:
		s ^= 1
		ks[s] = k
	default:
		s = preAggSlots
	}
	return s
}

// preAggregate folds one worker's rows into the shared table through a
// private pre-aggregation table. It reports false when the shared table is
// full. Rows are probed a block at a time, recording each row's private
// slot, and the block's values are then folded by one typed loop per
// operator. A row that misses the private table folds straight into the
// shared table; its private slot is a discarded spill cell.
func preAggregate(t []int64, slots int, op AggOp, keys []int32, vals []int64) bool {
	const spill = preAggSlots
	var keyOf preAggKeys
	var acc [preAggSlots + 1]int64
	var idx [preAggBlock]uint8
	for s := range keyOf {
		keyOf[s] = hashEmpty
		acc[s] = op.identity()
	}
	for base := 0; base < len(keys); base += preAggBlock {
		blk := keys[base:min(base+preAggBlock, len(keys))]
		spilled := 0
		for j, k32 := range blk {
			k := int64(k32)
			s := keyOf.slot(k)
			if s == spill {
				spilled++
				p := insert(t, slots, k)
				if p < 0 {
					return false
				}
				v := int64(1)
				if op != AggCount {
					v = vals[base+j]
				}
				atomicAgg(t, p, op, v)
			}
			idx[j] = uint8(s)
		}
		if spilled < len(blk) {
			var v []int64
			if op != AggCount {
				v = vals[base : base+len(blk)]
			}
			foldSlots(op, acc[:], idx[:len(blk)], v)
		}
	}
	for s, k := range keyOf {
		if k == hashEmpty {
			continue
		}
		p := insert(t, slots, k)
		if p < 0 {
			return false
		}
		atomicAgg(t, p, op, acc[s])
	}
	return true
}

// foldSlots folds vals[j] into acc[idx[j]] under op; COUNT adds one per
// row and reads no values.
func foldSlots(op AggOp, acc []int64, idx []uint8, vals []int64) {
	switch op {
	case AggSum:
		for j, s := range idx {
			acc[s] += vals[j]
		}
	case AggCount:
		for _, s := range idx {
			acc[s]++
		}
	case AggMin:
		for j, s := range idx {
			acc[s] = min(acc[s], vals[j])
		}
	case AggMax:
		for j, s := range idx {
			acc[s] = max(acc[s], vals[j])
		}
	}
}

func hashAggCost(m CostModel, args []vec.Vector, params []int64) vclock.Duration {
	n := int64(args[0].Len())
	groups := int64(0)
	if len(params) >= 2 {
		groups = params[1]
	}
	// All SIMT threads funnel through one memory controller; static
	// scheduling (OpenCL) degrades sharply as groups spread across more
	// cache lines, CUDA much less (Figure 9(c)).
	contention := 1.0
	if groups > 1 {
		contention += m.SDK.GroupScalePenalty * math.Log2(float64(groups))
	}
	return m.SDK.Atomic(m.Spec, n, contention) + m.SDK.Stream(m.Spec, args[0].Bytes()+args[1].Bytes())
}

// HashExtract compacts the non-empty slots of a table into dense key and
// payload columns sorted by key, with the group count in outCount[0]. The
// key ordering makes extraction deterministic and aligns the outputs of
// multiple aggregation tables built over the same key column. Args:
// table(I64), outKeys(I64), outVals(I64), outCount(I64 len 1).
var HashExtract = register(&Kernel{
	Name:   "hash_extract",
	NArgs:  4,
	Source: "__kernel hash_extract(t, k, v, c) { /* compaction + key sort */ }",
	Fn: func(ctx *Ctx, args []vec.Vector, _ []int64) error {
		t, slots, err := tableOf(args[0])
		if err != nil {
			return err
		}
		outKeys, outVals, outCount := args[1].I64(), args[2].I64(), args[3].I64()
		if len(outCount) != 1 {
			return fmt.Errorf("%w: hash_extract count buffer must have 1 element", ErrBadArgs)
		}
		if len(outKeys) != len(outVals) {
			return fmt.Errorf("%w: hash_extract output lengths differ", ErrBadArgs)
		}
		at := 0
		for s := 0; s < slots; s++ {
			if t[2*s] == hashEmpty {
				continue
			}
			if at >= len(outKeys) {
				return fmt.Errorf("%w: hash_extract output holds %d groups, overflowed", ErrBadArgs, len(outKeys))
			}
			outKeys[at] = t[2*s]
			outVals[at] = t[2*s+1]
			at++
		}
		sortPairs(outKeys[:at], outVals[:at])
		outCount[0] = int64(at)
		return nil
	},
	Cost: func(m CostModel, args []vec.Vector, _ []int64) vclock.Duration {
		return m.SDK.Stream(m.Spec, 2*args[0].Bytes())
	},
})

// sortPairs sorts parallel key/value slices by key ascending.
func sortPairs(keys, vals []int64) {
	sort.Sort(&pairSorter{keys: keys, vals: vals})
}

type pairSorter struct {
	keys, vals []int64
}

func (p *pairSorter) Len() int           { return len(p.keys) }
func (p *pairSorter) Less(i, j int) bool { return p.keys[i] < p.keys[j] }
func (p *pairSorter) Swap(i, j int) {
	p.keys[i], p.keys[j] = p.keys[j], p.keys[i]
	p.vals[i], p.vals[j] = p.vals[j], p.vals[i]
}
