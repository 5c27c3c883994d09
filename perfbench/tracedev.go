package main

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/devmem"
	"github.com/adamant-db/adamant/internal/driver/simcuda"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/vclock"
	"github.com/adamant-db/adamant/internal/vec"
)

// Device-call categories of the timing device.
const (
	catH2D    = iota // PlaceData, PlaceDataInto
	catD2H           // RetrieveData
	catMem           // PrepareMemory, AddPinnedMemory, CreateChunk, TransformMemory, DeleteMemory, Buffer, Sync
	catKernel        // Execute
	numCats
)

var catNames = [numCats]string{"h2d", "d2h", "mem", "kernel"}

// families are the buckets of kernels.host_ms.<family>: each claims the
// kernel names (device.ExecRequest.Kernel) starting with one of its
// prefixes; "other" takes the rest.
var families = []struct {
	name     string
	prefixes []string
}{
	{"filter", []string{"filter_"}},
	{"fused", []string{"fused_"}},
	{"hash_build", []string{"hash_build"}},
	{"hash_probe", []string{"hash_probe"}},
	{"hash_agg", []string{"hash_agg", "hash_extract"}},
	{"hash_table_init", []string{"hash_table_init"}},
	{"materialize", []string{"materialize_"}},
	{"map", []string{"map_"}},
	{"agg", []string{"agg_", "sort_agg"}},
	{"bitmap", []string{"bitmap_"}},
	{"prefix", []string{"prefix_sum"}},
	{"other", nil},
}

// family returns the index in families of a kernel name.
func family(kernel string) int {
	for i, f := range families {
		for _, p := range f.prefixes {
			if strings.HasPrefix(kernel, p) {
				return i
			}
		}
	}
	return len(families) - 1
}

// maxDeviceSpans bounds the device-call spans kept for the span file.
const maxDeviceSpans = 200_000

// deviceSpan is one timed device call, in nanoseconds since the timing
// device's origin.
type deviceSpan struct {
	Start, Dur int64
	Cat        int
	Name       string
}

// timingDevice is the benchmark's timing wrapper around one simulated
// RTX 2080 Ti: it times every device-layer call that does work, by
// category and (for kernel launches) by kernel family, and forwards
// everything else. It adds no tracing inside the engine. The counters are
// totals over all callers; with one client, deltas around a query are that
// query's own.
type timingDevice struct {
	device.Device
	origin time.Time

	ns    [numCats]atomic.Int64
	calls [numCats]atomic.Int64
	famNs []atomic.Int64
	// bookNs is the wrapper's own bookkeeping time after each call, so it
	// can be kept out of the executor's self time.
	bookNs atomic.Int64

	mu      sync.Mutex
	spans   []deviceSpan
	dropped int64
}

func newTimingDevice() *timingDevice {
	return &timingDevice{
		Device: simcuda.New(&simhw.RTX2080Ti, nil),
		origin: time.Now(),
		famNs:  make([]atomic.Int64, len(families)),
	}
}

func (d *timingDevice) now() int64 { return int64(time.Since(d.origin)) }

// done accounts one call that started at t0.
func (d *timingDevice) done(cat int, name string, t0 int64) {
	t1 := d.now()
	d.ns[cat].Add(t1 - t0)
	d.calls[cat].Add(1)
	if cat == catKernel {
		d.famNs[family(name)].Add(t1 - t0)
	}
	d.mu.Lock()
	if len(d.spans) < maxDeviceSpans {
		d.spans = append(d.spans, deviceSpan{Start: t0, Dur: t1 - t0, Cat: cat, Name: name})
	} else {
		d.dropped++
	}
	d.mu.Unlock()
	d.bookNs.Add(d.now() - t1)
}

// deviceTotals is a snapshot of the timing device's counters.
type deviceTotals struct {
	ns, calls [numCats]int64
	famNs     []int64
	bookNs    int64
}

func (d *timingDevice) totals() deviceTotals {
	t := deviceTotals{famNs: make([]int64, len(families)), bookNs: d.bookNs.Load()}
	for c := range t.ns {
		t.ns[c] = d.ns[c].Load()
		t.calls[c] = d.calls[c].Load()
	}
	for f := range t.famNs {
		t.famNs[f] = d.famNs[f].Load()
	}
	return t
}

// sub returns t - base.
func (t deviceTotals) sub(base deviceTotals) deviceTotals {
	out := deviceTotals{famNs: make([]int64, len(t.famNs)), bookNs: t.bookNs - base.bookNs}
	for c := range t.ns {
		out.ns[c] = t.ns[c] - base.ns[c]
		out.calls[c] = t.calls[c] - base.calls[c]
	}
	for f := range t.famNs {
		out.famNs[f] = t.famNs[f] - base.famNs[f]
	}
	return out
}

// callNs is the wall time spent in device calls of every category.
func (t deviceTotals) callNs() int64 {
	var s int64
	for _, v := range t.ns {
		s += v
	}
	return s
}

func (t deviceTotals) callCount() int64 {
	var s int64
	for _, v := range t.calls {
		s += v
	}
	return s
}

// PlaceData implements device.Device.
func (d *timingDevice) PlaceData(data vec.Vector, ready vclock.Time) (devmem.BufferID, vclock.Time, error) {
	t0 := d.now()
	id, end, err := d.Device.PlaceData(data, ready)
	d.done(catH2D, "place_data", t0)
	return id, end, err
}

// PlaceDataInto implements device.Device.
func (d *timingDevice) PlaceDataInto(id devmem.BufferID, off int, data vec.Vector, ready vclock.Time) (vclock.Time, error) {
	t0 := d.now()
	end, err := d.Device.PlaceDataInto(id, off, data, ready)
	d.done(catH2D, "place_data_into", t0)
	return end, err
}

// RetrieveData implements device.Device.
func (d *timingDevice) RetrieveData(id devmem.BufferID, off, n int, dst vec.Vector, ready vclock.Time) (vclock.Time, error) {
	t0 := d.now()
	end, err := d.Device.RetrieveData(id, off, n, dst, ready)
	d.done(catD2H, "retrieve_data", t0)
	return end, err
}

// PrepareMemory implements device.Device.
func (d *timingDevice) PrepareMemory(t vec.Type, n int, ready vclock.Time) (devmem.BufferID, vclock.Time, error) {
	t0 := d.now()
	id, end, err := d.Device.PrepareMemory(t, n, ready)
	d.done(catMem, "prepare_memory", t0)
	return id, end, err
}

// AddPinnedMemory implements device.Device.
func (d *timingDevice) AddPinnedMemory(t vec.Type, n int, ready vclock.Time) (devmem.BufferID, vclock.Time, error) {
	t0 := d.now()
	id, end, err := d.Device.AddPinnedMemory(t, n, ready)
	d.done(catMem, "add_pinned_memory", t0)
	return id, end, err
}

// CreateChunk implements device.Device.
func (d *timingDevice) CreateChunk(id devmem.BufferID, off, n int) (devmem.BufferID, error) {
	t0 := d.now()
	out, err := d.Device.CreateChunk(id, off, n)
	d.done(catMem, "create_chunk", t0)
	return out, err
}

// TransformMemory implements device.Device.
func (d *timingDevice) TransformMemory(id devmem.BufferID, target devmem.Format, ready vclock.Time) (vclock.Time, error) {
	t0 := d.now()
	end, err := d.Device.TransformMemory(id, target, ready)
	d.done(catMem, "transform_memory", t0)
	return end, err
}

// DeleteMemory implements device.Device.
func (d *timingDevice) DeleteMemory(id devmem.BufferID) error {
	t0 := d.now()
	err := d.Device.DeleteMemory(id)
	d.done(catMem, "delete_memory", t0)
	return err
}

// Buffer implements device.Device.
func (d *timingDevice) Buffer(id devmem.BufferID) (*devmem.Buffer, error) {
	t0 := d.now()
	b, err := d.Device.Buffer(id)
	d.done(catMem, "buffer", t0)
	return b, err
}

// Sync implements device.Device.
func (d *timingDevice) Sync(ready vclock.Time) vclock.Time {
	t0 := d.now()
	end := d.Device.Sync(ready)
	d.done(catMem, "sync", t0)
	return end
}

// Execute implements device.Device.
func (d *timingDevice) Execute(req device.ExecRequest, ready vclock.Time) (vclock.Time, error) {
	t0 := d.now()
	end, err := d.Device.Execute(req, ready)
	d.done(catKernel, req.Kernel, t0)
	return end, err
}

// MarkPooled forwards device.PoolMarker to the simulated device.
func (d *timingDevice) MarkPooled(id devmem.BufferID, pooled bool) error {
	return d.Device.(device.PoolMarker).MarkPooled(id, pooled)
}

// CheckMemAccounting forwards device.MemChecker to the simulated device.
func (d *timingDevice) CheckMemAccounting() error {
	return d.Device.(device.MemChecker).CheckMemAccounting()
}
