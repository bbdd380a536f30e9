package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"gvrt/internal/trace"
)

// series is an append-only store of wall durations in ns. Its memory
// is mapped outside the Go heap: samples the benchmark keeps must not
// grow the heap the runtime's garbage collector paces itself by, or
// the run would measure fewer collections the longer it lasted.
type series struct {
	buf  []int32
	n    int
	lost int
}

// seriesCap bounds one series: over 100 s of the busiest workload's
// calls from one client. Pages are committed only as they are written.
const seriesCap = 1 << 24

func newSeries() (*series, error) {
	b, err := syscall.Mmap(-1, 0, seriesCap*4, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, fmt.Errorf("map sample store: %w", err)
	}
	return &series{buf: unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), seriesCap)}, nil
}

func (s *series) add(d time.Duration) {
	if s.n == len(s.buf) {
		s.lost++
		return
	}
	v := int64(d)
	if v > math.MaxInt32 {
		v = math.MaxInt32
	}
	s.buf[s.n] = int32(v)
	s.n++
}

func (s *series) release() {
	if s.buf != nil {
		_ = syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(&s.buf[0])), len(s.buf)*4))
		s.buf = nil
	}
}

// sorted merges sample slices into one ascending slice.
func sorted(parts ...[]int32) []int32 {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]int32, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	slices.Sort(out)
	return out
}

// quantile is the nearest-rank q-quantile of an ascending slice, in ns.
func quantile(v []int32, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(v[i])
}

func mean(v []int32) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum int64
	for _, x := range v {
		sum += int64(x)
	}
	return float64(sum) / float64(len(v))
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocBytes is the Go heap's cumulative allocation count in bytes.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// goStats is a reading of the Go runtime's own counters.
type goStats struct {
	gcCycles uint64
	pauseNS  uint64
	sched    *metrics.Float64Histogram
}

func readGo() goStats {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goStats{
		gcCycles: s[0].Value.Uint64(),
		pauseNS:  ms.PauseTotalNs,
		sched:    s[1].Value.Float64Histogram(),
	}
}

// schedP99 is the 99th percentile of goroutine scheduling latency
// between two readings, in µs, at the runtime histogram's bucket
// resolution (the upper edge of the bucket holding it).
func schedP99(before, after goStats) float64 {
	a, b := after.sched, before.sched
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	d := make([]uint64, len(a.Counts))
	for i := range d {
		d[i] = a.Counts[i] - b.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, n := range d {
		cum += n
		if cum >= want {
			edge := a.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = a.Buckets[i]
			}
			return edge * 1e6
		}
	}
	return 0
}

// goroutineSampler records the peak goroutine count until stopped.
type goroutineSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func sampleGoroutines(every time.Duration) *goroutineSampler {
	g := &goroutineSampler{stop: make(chan struct{})}
	g.done.Add(1)
	go func() {
		defer g.done.Done()
		s := []metrics.Sample{{Name: "/sched/goroutines:goroutines"}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > g.peak {
				g.peak = v
			}
			select {
			case <-g.stop:
				return
			case <-t.C:
			}
		}
	}()
	return g
}

// finish stops the sampler and returns the peak it saw.
func (g *goroutineSampler) finish() uint64 {
	close(g.stop)
	g.done.Wait()
	return g.peak
}

// host describes the machine a result was measured on.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Revision   string `json:"revision"`
}

func hostStamp() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CPU:        cpuModel(),
		Revision:   revision(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// revision is the VCS revision the binary was built from, as the Go
// toolchain stamped it; "unknown" when built outside a repository.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// counters is a reading of every node's runtime, memory manager and
// device counters, summed over the rig's nodes.
type counters struct {
	binds, unbindRetries, offloaded, sheds, fenceRejections    int64
	intraSwaps, interSwaps, prefetchIssued, prefetchHits       int64
	swapOps, swapBytes, checkpointBytes, dedupHits, dedupSaved int64
	launches, h2dOps, h2dBytes, d2hOps, d2hBytes               int64
	busy                                                       time.Duration
	queueWait, bindWait, swapDur                               trace.HistSnapshot
}

func read(g *rig) counters {
	var c counters
	for _, n := range g.all {
		m := n.rt.Metrics()
		c.binds += m.Binds
		c.unbindRetries += m.UnbindRetries
		c.offloaded += m.Offloaded
		c.sheds += m.Sheds
		c.fenceRejections += m.FenceRejections
		c.intraSwaps += m.IntraAppSwaps
		c.interSwaps += m.InterAppSwaps
		c.prefetchIssued += m.PrefetchIssued
		c.prefetchHits += m.PrefetchHits
		c.swapOps += m.Memory.SwapOps
		c.swapBytes += m.Memory.SwapBytes
		c.checkpointBytes += m.Memory.CheckpointBytes
		c.dedupHits += m.Memory.DedupHits
		c.dedupSaved += m.Memory.DedupSavedBytes
		for _, d := range n.crt.Devices() {
			st := d.Stats()
			c.launches += st.Launches
			c.h2dOps += st.H2DOps
			c.h2dBytes += st.H2DBytes
			c.d2hOps += st.D2HOps
			c.d2hBytes += st.D2HBytes
			c.busy += st.Busy
		}
		t := n.rt.Timings()
		c.queueWait = c.queueWait.Merge(t.QueueWait.Snapshot())
		c.bindWait = c.bindWait.Merge(t.BindWait.Snapshot())
		c.swapDur = c.swapDur.Merge(t.SwapDur.Snapshot())
	}
	return c
}

// since is the change from an earlier reading to c.
func (c counters) since(p counters) counters {
	return counters{
		binds:         c.binds - p.binds,
		unbindRetries: c.unbindRetries - p.unbindRetries, offloaded: c.offloaded - p.offloaded,
		sheds: c.sheds - p.sheds, fenceRejections: c.fenceRejections - p.fenceRejections,
		intraSwaps: c.intraSwaps - p.intraSwaps, interSwaps: c.interSwaps - p.interSwaps,
		prefetchIssued: c.prefetchIssued - p.prefetchIssued, prefetchHits: c.prefetchHits - p.prefetchHits,
		swapOps: c.swapOps - p.swapOps, swapBytes: c.swapBytes - p.swapBytes,
		checkpointBytes: c.checkpointBytes - p.checkpointBytes,
		dedupHits:       c.dedupHits - p.dedupHits, dedupSaved: c.dedupSaved - p.dedupSaved,
		launches: c.launches - p.launches, h2dOps: c.h2dOps - p.h2dOps, h2dBytes: c.h2dBytes - p.h2dBytes,
		d2hOps: c.d2hOps - p.d2hOps, d2hBytes: c.d2hBytes - p.d2hBytes, busy: c.busy - p.busy,
		queueWait: c.queueWait.Delta(p.queueWait), bindWait: c.bindWait.Delta(p.bindWait),
		swapDur: c.swapDur.Delta(p.swapDur),
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// modelUS converts the mean of a model-time histogram into wall µs.
func modelUS(h trace.HistSnapshot) float64 { return h.Mean() * scale / 1e3 }
