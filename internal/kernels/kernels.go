// Package kernels implements the database primitive kernels that ADAMANT's
// task layer plugs into the device drivers.
//
// Every kernel follows an SDK-style calling convention: a flat list of
// buffer arguments (vec.Vector views resolved by the device from its memory
// pool) plus a flat list of scalar parameters, mirroring how clSetKernelArg
// or a CUDA launch passes arguments. Kernels compute real results on the
// host (data-parallel across goroutines, standing in for the SIMT/SIMD
// execution of the modelled device) and expose a separate cost function
// that prices the launch on a given device/SDK combination in virtual time.
//
// The kernel set covers Table I of the paper: MAP, AGG_BLOCK, HASH_AGG,
// HASH_BUILD, HASH_PROBE, SORT_AGG, FILTER_BITMAP, FILTER_POSITION,
// PREFIX_SUM, MATERIALIZE and MATERIALIZE_POSITION, in the type variants
// the TPC-H workloads need.
package kernels

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/vclock"
	"github.com/adamant-db/adamant/internal/vec"
)

// Kernel errors.
var (
	ErrUnknownKernel = errors.New("kernels: unknown kernel")
	ErrBadArgs       = errors.New("kernels: bad kernel arguments")
)

// Ctx carries per-launch execution settings.
type Ctx struct {
	// Workers is the number of goroutines a data-parallel kernel may use.
	// Zero means GOMAXPROCS.
	Workers int
}

func (c *Ctx) workers() int {
	if c == nil || c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// CostModel is the device/SDK pair a launch is priced against.
type CostModel struct {
	Spec *simhw.Spec
	SDK  *simhw.SDKProfile
}

// Func is a kernel body. args are the buffer arguments in kernel-specific
// order; params are scalar parameters. Kernels that produce a variable-sized
// result write its cardinality into a designated 1-element Int64 argument,
// the way GPU kernels return counts through device memory.
type Func func(ctx *Ctx, args []vec.Vector, params []int64) error

// CostFunc prices one launch, excluding the SDK's fixed launch/argument
// mapping overhead (the device driver adds that per Figure 10).
type CostFunc func(m CostModel, args []vec.Vector, params []int64) vclock.Duration

// Kernel bundles a primitive implementation with its cost model and the
// metadata the task layer needs to validate launches.
type Kernel struct {
	Name string
	// NArgs is the expected buffer argument count. Negative means the
	// kernel takes a variable number of arguments and validates the shape
	// itself (the fused kernels, whose column count depends on the chain
	// they replaced).
	NArgs int
	// NParams is the minimum scalar parameter count.
	NParams int
	// Source is a pseudo-source string registered through prepare_kernel
	// on SDKs with runtime compilation.
	Source string
	Fn     Func
	Cost   CostFunc
}

// Validate checks a launch's argument shape.
func (k *Kernel) Validate(args []vec.Vector, params []int64) error {
	if k.NArgs >= 0 && len(args) != k.NArgs {
		return fmt.Errorf("%w: %s expects %d buffer args, got %d", ErrBadArgs, k.Name, k.NArgs, len(args))
	}
	if len(params) < k.NParams {
		return fmt.Errorf("%w: %s expects >=%d params, got %d", ErrBadArgs, k.Name, k.NParams, len(params))
	}
	return nil
}

// Registry maps kernel names to implementations. The zero Registry is empty;
// use NewRegistry for one preloaded with the built-in kernel set.
type Registry struct {
	mu      sync.RWMutex
	kernels map[string]*Kernel
}

// NewRegistry returns a registry containing every built-in kernel.
func NewRegistry() *Registry {
	r := &Registry{kernels: make(map[string]*Kernel)}
	for _, k := range builtins {
		r.kernels[k.Name] = k
	}
	return r
}

// Register adds (or replaces) a kernel, enabling downstream users to plug in
// custom primitive implementations as §III-B of the paper describes.
func (r *Registry) Register(k *Kernel) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.kernels == nil {
		r.kernels = make(map[string]*Kernel)
	}
	r.kernels[k.Name] = k
}

// Lookup resolves a kernel by name.
func (r *Registry) Lookup(name string) (*Kernel, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	k, ok := r.kernels[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownKernel, name)
	}
	return k, nil
}

// Names returns the sorted kernel names, for diagnostics.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.kernels))
	for name := range r.kernels {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

var builtins []*Kernel

func register(k *Kernel) *Kernel {
	builtins = append(builtins, k)
	return k
}

// integer is the element type of the typed kernel loops: one generic body
// instantiates separately for int32 and int64 columns.
type integer interface{ ~int32 | ~int64 }

// chunkLen is the span length parallelRange hands each worker.
func chunkLen(ctx *Ctx, n, align int) int {
	w := ctx.workers()
	if align < 1 {
		align = 1
	}
	chunk := (n + w - 1) / w
	if chunk < align {
		chunk = align
	}
	return (chunk + align - 1) / align * align
}

// spans returns the unaligned span length parallelRange(ctx, n, 1, …) uses
// and the span count, for kernels that keep one partial per span: the span
// starting at s has index s/chunk.
func spans(ctx *Ctx, n int) (chunk, count int) {
	chunk = chunkLen(ctx, n, 1)
	return chunk, (n + chunk - 1) / chunk
}

// parallelRange splits [0,n) into contiguous spans, one per worker, and runs
// body(start, end) concurrently. Spans are aligned to align elements so that
// bitmap-producing kernels never share a word between workers. A panic in
// any worker is re-raised in the caller so the device boundary can convert
// it into a launch error.
func parallelRange(ctx *Ctx, n, align int, body func(start, end int)) {
	chunk := chunkLen(ctx, n, align)
	var st struct { // one allocation for the state every worker shares
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicked any
	}
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		st.wg.Add(1)
		go func(s, e int) {
			defer st.wg.Done()
			defer func() {
				if r := recover(); r != nil {
					st.mu.Lock()
					if st.panicked == nil {
						st.panicked = r
					}
					st.mu.Unlock()
				}
			}()
			body(s, e)
		}(start, end)
	}
	st.wg.Wait()
	if st.panicked != nil {
		panic(st.panicked)
	}
}
