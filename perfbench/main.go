// Command perfbench is the repository's benchmark. One run builds one
// workload's simulated cluster, drives it with a closed loop of two
// clients for a fixed time, checks the outputs against counts computed
// from the generated schedule, and prints the result.
//
// Usage:
//
//	perfbench --workload dispatch|swap|offload --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output holds the end-to-end
// metrics; with --trace 1 it holds the per-layer metrics of a traced
// run. The exit code is 1 when an output check fails. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gvrt/internal/frontend"
)

// maxSeconds keeps a run, set-up included, inside the model clock's
// range (see scale).
const maxSeconds = 80

// options is one run's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string // where a traced run writes its spans
	// setups is how many times the set-up is built and timed; setup_s
	// is their median.
	setups int
	// skew is added to every pinned expectation; tests set it to prove
	// that a wrong expectation fails the run.
	skew int64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable outcome, printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything a run produced.
type report struct {
	result
	host   host
	lines  []string // human-readable metric lines
	checks []string // failed output checks
}

func (r *report) set(name string, v float64, unit, note string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.note(name, v, unit, note)
}

// note adds a line to the human-readable table without adding the
// figure to the result object.
func (r *report) note(name string, v float64, unit, note string) {
	l := fmt.Sprintf("%-30s %14.4f %-8s", name, v, unit)
	if note != "" {
		l += " " + note
	}
	r.lines = append(r.lines, l)
}

func main() {
	var o options
	var traced int
	flag.StringVar(&o.workload, "workload", "dispatch", "workload to run: dispatch, swap or offload")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated session schedule")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured wall seconds")
	flag.IntVar(&traced, "trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.Parse()
	o.trace = traced == 1
	o.setups = 9
	o.traceOut = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-%d.jsonl", o.workload, o.seed))
	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	printReport(os.Stdout, o, rep)
	if !rep.Correct {
		for _, c := range rep.checks {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", c)
		}
		os.Exit(1)
	}
}

func printReport(w io.Writer, o options, rep *report) {
	h, _ := json.Marshal(rep.host)
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v clients=%d\n", o.workload, o.seed, o.seconds, o.trace, clients)
	fmt.Fprintf(w, "host %s\n", h)
	for _, l := range rep.lines {
		fmt.Fprintln(w, l)
	}
	for _, c := range rep.checks {
		fmt.Fprintf(w, "check failed: %s\n", c)
	}
	b, _ := json.Marshal(rep.result)
	fmt.Fprintf(w, "%s\n", b)
}

// clientState is one closed-loop client: its schedule generator and
// the running totals of what it generated, which the checks compare
// against the runtime's counters.
type clientState struct {
	id  int
	rng *rand.Rand

	sessions, launches, swapOps int64
	probeBad                    int64
	errs                        []error
}

func newClients(seed int64) []*clientState {
	cls := make([]*clientState, clients)
	for i := range cls {
		cls[i] = &clientState{id: i}
	}
	reseed(cls, seed)
	return cls
}

func reseed(cls []*clientState, seed int64) {
	for i, cl := range cls {
		cl.rng = rand.New(rand.NewSource(seed*clients + int64(i)))
	}
}

// warmupSeed seeds the warm-up sessions, so every run's set-up does
// the same work whatever its --seed.
const warmupSeed = -1

// clientStats are one client's wall-clock measurements in one phase.
// The phase is cut into equal windows by completion time; marks[k]
// holds the index of the first sample of window k in each series.
type clientStats struct {
	calls, launches, sessions *series
	marks                     [][3]int
	win                       time.Duration
	next                      time.Time // start of the next window
	attempted, failed         int64
}

func newClientStats(win time.Duration) (*clientStats, error) {
	st := &clientStats{win: win, marks: [][3]int{{}}}
	var err error
	for _, p := range []**series{&st.calls, &st.launches, &st.sessions} {
		if *p, err = newSeries(); err != nil {
			st.release()
			return nil, err
		}
	}
	return st, nil
}

func (st *clientStats) release() {
	for _, s := range []*series{st.calls, st.launches, st.sessions} {
		if s != nil {
			s.release()
		}
	}
}

// roll opens the windows that start at or before t.
func (st *clientStats) roll(t time.Time) {
	for !t.Before(st.next) {
		st.marks = append(st.marks, [3]int{st.calls.n, st.launches.n, st.sessions.n})
		st.next = st.next.Add(st.win)
	}
}

// Series indexes of clientStats.
const (
	sCalls = iota
	sLaunches
	sSessions
)

func (st *clientStats) series(i int) *series {
	return [3]*series{st.calls, st.launches, st.sessions}[i]
}

// window returns series i's samples in window k.
func (st *clientStats) window(i, k int) []int32 {
	s := st.series(i)
	if k >= len(st.marks) {
		return nil
	}
	end := s.n
	if k+1 < len(st.marks) {
		end = st.marks[k+1][i]
	}
	return s.buf[st.marks[k][i]:end]
}

// caller times every frontend.Client method a session calls.
type caller struct {
	c  *frontend.Client
	st *clientStats // nil during warm-up
	tr *sessionTrace
}

func (k *caller) do(kind callKind, f func() error) error {
	var id uint64
	if k.tr != nil {
		id = k.tr.begin()
	}
	start := time.Now()
	err := f()
	end := time.Now()
	if k.tr != nil {
		k.tr.end(id, kind, start, end)
	}
	if st := k.st; st != nil {
		d := end.Sub(start)
		st.attempted++
		if err != nil {
			st.failed++
		}
		st.roll(end)
		st.calls.add(d)
		if kind == kLaunch {
			st.launches.add(d)
		}
	}
	return err
}

// session runs one generated session from connect to exit.
func (cl *clientState) session(g *rig, w workload, st *clientStats) {
	s := w.draw(cl.rng)
	start := time.Now()
	c, tr := g.connect(cl.id)
	k := &caller{c: c, st: st, tr: tr}
	err := s.run(k)
	_ = k.do(kExit, c.Close)
	if st != nil {
		end := time.Now()
		st.roll(end)
		st.sessions.add(end.Sub(start))
	}
	if tr != nil {
		tr.fold()
	}
	cl.sessions++
	cl.launches += s.launches()
	cl.swapOps += s.swapOps()
	switch {
	case errors.Is(err, errProbe):
		cl.probeBad++
	case err != nil:
		cl.errs = append(cl.errs, err)
	}
}

// setup builds the workload's rig and warms it up with a fixed number
// of sessions per client.
func setup(w workload) (*rig, []*clientState, time.Duration, error) {
	start := time.Now()
	g, err := w.build()
	if err != nil {
		return nil, nil, 0, err
	}
	cls := newClients(warmupSeed)
	var wg sync.WaitGroup
	for _, cl := range cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < w.warmup; i++ {
				cl.session(g, w, nil)
			}
		}()
	}
	wg.Wait()
	g.live.Wait()
	return g, cls, time.Since(start), nil
}

// phase is one measured stretch of the closed loop, cut into windows
// of about a second; end-to-end figures are medians over the windows,
// so a burst of host noise moves one window, not the run.
type phase struct {
	wall     time.Duration
	win      time.Duration
	nwin     int
	stats    [clients]*clientStats
	marks    []windowMark // at each window boundary
	goBefore goStats
	goAfter  goStats
	peakG    uint64
}

type windowMark struct {
	cpu   time.Duration
	alloc uint64
}

func measure(g *rig, w workload, cls []*clientState, d time.Duration) (*phase, error) {
	ph := &phase{nwin: max(1, int(d/time.Second))}
	ph.win = d / time.Duration(ph.nwin)
	for i := range ph.stats {
		st, err := newClientStats(ph.win)
		if err != nil {
			ph.release()
			return nil, err
		}
		ph.stats[i] = st
	}
	sampler := sampleGoroutines(5 * time.Millisecond)
	ph.goBefore = readGo()
	ph.marks = make([]windowMark, ph.nwin+1)
	origin := time.Now()
	for _, st := range ph.stats {
		st.next = origin.Add(ph.win)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := range ph.marks {
			time.Sleep(time.Until(origin.Add(time.Duration(k) * ph.win)))
			ph.marks[k] = windowMark{cpu: cpuTime(), alloc: allocBytes()}
		}
	}()
	deadline := origin.Add(d)
	for i, cl := range cls {
		st := ph.stats[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				cl.session(g, w, st)
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(origin)
	ph.goAfter = readGo()
	ph.peakG = sampler.finish()
	g.live.Wait()
	return ph, nil
}

func (ph *phase) release() {
	for _, st := range ph.stats {
		if st != nil {
			st.release()
		}
	}
}

// lost is the number of samples that did not fit their store.
func (ph *phase) lost() int {
	n := 0
	for _, st := range ph.stats {
		for i := sCalls; i <= sSessions; i++ {
			n += st.series(i).lost
		}
	}
	return n
}

func (ph *phase) calls() (attempted, failed int64) {
	for _, st := range ph.stats {
		attempted += st.attempted
		failed += st.failed
	}
	return
}

func (ph *phase) callsPerSec() float64 {
	n, _ := ph.calls()
	return float64(n) / ph.wall.Seconds()
}

// pooled merges series i over every client and window.
func (ph *phase) pooled(i int) []int32 {
	var parts [][]int32
	for _, st := range ph.stats {
		s := st.series(i)
		parts = append(parts, s.buf[:s.n])
	}
	return sorted(parts...)
}

// windowed merges series i over every client within window k.
func (ph *phase) windowed(i, k int) []int32 {
	var parts [][]int32
	for _, st := range ph.stats {
		parts = append(parts, st.window(i, k))
	}
	return sorted(parts...)
}

// run performs one benchmark run.
func run(o options) (*report, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds <= 0 || o.seconds > maxSeconds {
		return nil, fmt.Errorf("--seconds must be in (0, %d]: a node's model clock lasts 92 wall seconds at this clock scale", maxSeconds)
	}
	rep := &report{result: result{Metrics: map[string]metric{}}, host: hostStamp()}

	var g *rig
	var cls []*clientState
	var setupS []float64
	for i := 0; i < max(o.setups, 1); i++ {
		if g != nil {
			g.close()
		}
		var d time.Duration
		g, cls, d, err = setup(w)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupS = append(setupS, d.Seconds())
	}
	defer g.close()
	reseed(cls, o.seed)

	d := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		ph, err := measure(g, w, cls, d)
		if err != nil {
			return nil, err
		}
		defer ph.release()
		endToEnd(rep, ph, median(setupS))
		rep.Attempted, rep.Failed = ph.calls()
		if n := ph.lost(); n > 0 {
			rep.checks = append(rep.checks, fmt.Sprintf("%d latency samples did not fit the sample store", n))
		}
	} else {
		// The first half runs untraced, for the tracing overhead and the
		// Go runtime's host context; the second half is traced.
		plain, err := measure(g, w, cls, d/2)
		if err != nil {
			return nil, err
		}
		defer plain.release()
		tr, err := newTracer()
		if err != nil {
			return nil, err
		}
		defer tr.release()
		g.tr.Store(tr)
		before := read(g)
		traced, err := measure(g, w, cls, d/2)
		g.tr.Store(nil)
		if err != nil {
			return nil, err
		}
		defer traced.release()
		perLayer(rep, plain, traced, tr, read(g).since(before))
		rep.Attempted, rep.Failed = traced.calls()
		if err := tr.reconcile(); err != nil {
			rep.checks = append(rep.checks, err.Error())
		}
		if err := tr.write(o.traceOut, rep.host); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	rep.checks = append(rep.checks, check(g, w, cls, o.skew)...)
	if rep.Failed > 0 {
		rep.checks = append(rep.checks, fmt.Sprintf("%d of %d calls failed", rep.Failed, rep.Attempted))
	}
	rep.Correct = len(rep.checks) == 0
	return rep, nil
}

// endToEnd fills the metrics a tenant sees, from an untraced phase.
// Each is the median over the phase's windows of the figure measured
// within one window; calls and sessions that end after the last full
// window are left out.
func endToEnd(rep *report, ph *phase, setupS float64) {
	var perSec, c50, c99, l50, l99, s50, cpu, alloc []float64
	var nc, nl, ns int
	for k := 0; k < ph.nwin; k++ {
		c, l, s := ph.windowed(sCalls, k), ph.windowed(sLaunches, k), ph.windowed(sSessions, k)
		n := float64(len(c))
		nc, nl, ns = nc+len(c), nl+len(l), ns+len(s)
		perSec = append(perSec, n/ph.win.Seconds())
		c50 = append(c50, quantile(c, 0.50)/1e3)
		c99 = append(c99, quantile(c, 0.99)/1e3)
		l50 = append(l50, quantile(l, 0.50)/1e3)
		l99 = append(l99, quantile(l, 0.99)/1e3)
		s50 = append(s50, quantile(s, 0.50)/1e6)
		a, b := ph.marks[k], ph.marks[k+1]
		cpu = append(cpu, ratio(float64((b.cpu-a.cpu).Nanoseconds())/1e3, n))
		alloc = append(alloc, ratio(float64(b.alloc-a.alloc), n))
	}
	attempted, failed := ph.calls()
	per := func(n int) string { return fmt.Sprintf("(n=%d over %d windows)", n, ph.nwin) }
	rep.set("calls_per_s", median(perSec), "calls/s", per(nc))
	rep.set("call_p50_us", median(c50), "us", per(nc))
	rep.set("call_p99_us", median(c99), "us", per(nc))
	rep.set("launch_p50_us", median(l50), "us", per(nl))
	rep.set("launch_p99_us", median(l99), "us", per(nl))
	rep.set("session_p50_ms", median(s50), "ms", per(ns))
	rep.set("cpu_us_per_call", median(cpu), "us", "")
	rep.set("alloc_bytes_per_call", median(alloc), "B", "")
	rep.note("failed_call_ratio", ratio(float64(failed), float64(attempted)), "ratio",
		fmt.Sprintf("(%d of %d; reported as failed/attempted)", failed, attempted))
	rep.set("setup_s", setupS, "s", "(median of set-ups)")
}

// perLayer fills the per-layer metrics of a traced run.
func perLayer(rep *report, plain, traced *phase, tr *tracer, c counters) {
	m := tr.merged()
	us := func(ns float64) float64 { return ns / 1e3 }
	pipe, tcp, handle, proxy := tr.pooled(lPipeRTT), tr.pooled(lTCPRTT), tr.pooled(lHandle), tr.pooled(lProxySelf)
	tr.mu.Lock()
	dials := sorted(tr.dials.buf[:tr.dials.n])
	tr.mu.Unlock()
	n := func(v []int32) string { return fmt.Sprintf("(n=%d)", len(v)) }

	rep.set("frontend.self_mean_us", us(mean(tr.pooled(lFrontendSelf))), "us", fmt.Sprintf("(n=%d)", m.calls))
	rep.set("transport.pipe_rtt_p50_us", us(quantile(pipe, 0.50)), "us", n(pipe))
	rep.set("transport.pipe_rtt_p99_us", us(quantile(pipe, 0.99)), "us", n(pipe))
	rep.set("transport.tcp_rtt_p50_us", us(quantile(tcp, 0.50)), "us", n(tcp))
	rep.set("transport.tcp_rtt_p99_us", us(quantile(tcp, 0.99)), "us", n(tcp))
	rep.set("transport.tcp_dial_p50_us", us(quantile(dials, 0.50)), "us", n(dials))
	rep.set("core.handle_p50_us", us(quantile(handle, 0.50)), "us", n(handle))
	rep.set("core.handle_p99_us", us(quantile(handle, 0.99)), "us", n(handle))
	for _, k := range []callKind{kRegister, kMalloc, kMemcpyHD, kMemcpyDH, kLaunch, kFree, kExit} {
		rep.set("core.handle."+kindNames[k]+"_mean_us", us(ratio(float64(m.handleKindNS[k]), float64(m.handleKindN[k]))), "us",
			fmt.Sprintf("(n=%d)", m.handleKindN[k]))
	}
	rep.set("core.proxy_self_p50_us", us(quantile(proxy, 0.50)), "us", n(proxy))
	rep.set("core.queue_wait_mean_us", modelUS(c.queueWait), "us", fmt.Sprintf("(n=%d, model ns x scale)", c.queueWait.Count))
	rep.set("core.bind_wait_mean_us", modelUS(c.bindWait), "us", fmt.Sprintf("(n=%d, model ns x scale)", c.bindWait.Count))
	rep.set("core.binds", float64(c.binds), "count", "")
	rep.set("core.binds_per_launch", ratio(float64(c.binds), float64(c.launches)), "ratio", "")
	rep.set("core.unbind_retries", float64(c.unbindRetries), "count", "")
	rep.set("core.offloaded", float64(c.offloaded), "count", "")
	rep.set("core.sheds", float64(c.sheds), "count", "")
	rep.set("core.fence_rejections", float64(c.fenceRejections), "count", "")

	rep.set("memmgr.swap_ops", float64(c.swapOps), "count", "")
	rep.set("memmgr.swap_bytes", float64(c.swapBytes), "B", "")
	rep.set("memmgr.intra_swaps", float64(c.intraSwaps), "count", "")
	rep.set("memmgr.inter_swaps", float64(c.interSwaps), "count", "")
	rep.set("memmgr.swap_dur_mean_us", modelUS(c.swapDur), "us", fmt.Sprintf("(n=%d, model ns x scale)", c.swapDur.Count))
	rep.set("memmgr.checkpoint_bytes", float64(c.checkpointBytes), "B", "")
	rep.set("memmgr.prefetch_issued", float64(c.prefetchIssued), "count", "")
	rep.set("memmgr.prefetch_hit_ratio", ratio(float64(c.prefetchHits), float64(c.prefetchIssued)), "ratio",
		fmt.Sprintf("(%d hits; 0 when none issued)", c.prefetchHits))
	rep.set("memmgr.dedup_hits", float64(c.dedupHits), "count", "")
	rep.set("memmgr.dedup_saved_bytes", float64(c.dedupSaved), "B", "(change over the phase)")

	rep.set("gpu.launches", float64(c.launches), "count", "")
	rep.set("gpu.h2d_ops", float64(c.h2dOps), "count", "")
	rep.set("gpu.h2d_bytes_per_op", ratio(float64(c.h2dBytes), float64(c.h2dOps)), "B", "")
	rep.set("gpu.d2h_ops", float64(c.d2hOps), "count", "")
	rep.set("gpu.d2h_bytes_per_op", ratio(float64(c.d2hBytes), float64(c.d2hOps)), "B", "")
	rep.set("gpu.busy_model_s", c.busy.Seconds(), "model_s", "(model time)")

	// Host context of the untraced half, the one end-to-end figures
	// come from.
	a, b := plain.goAfter, plain.goBefore
	rep.set("go.gc_cycles", float64(a.gcCycles-b.gcCycles), "count", "(untraced half)")
	rep.set("go.gc_pause_total_ms", float64(a.pauseNS-b.pauseNS)/1e6, "ms", "(untraced half)")
	rep.set("go.sched_latency_p99_us", schedP99(b, a), "us", "(untraced half, bucket edge)")
	rep.set("go.goroutines_peak", float64(plain.peakG), "count", "(untraced half)")

	rep.set("trace.overhead_ratio", ratio(traced.callsPerSec(), plain.callsPerSec()), "ratio",
		fmt.Sprintf("(traced %.0f / untraced %.0f calls/s)", traced.callsPerSec(), plain.callsPerSec()))
	if m.rootNS > 0 {
		rep.lines = append(rep.lines, fmt.Sprintf("self time share of client time: frontend %.1f%%, transport %.1f%%, core %.1f%% (%d calls)",
			100*float64(m.frontendNS)/float64(m.rootNS), 100*float64(m.transportNS)/float64(m.rootNS),
			100*float64(m.coreNS)/float64(m.rootNS), m.calls))
	}
}

// check compares the runtime's counters with the counts the generated
// schedule implies, over every session the rig served, warm-up
// included.
func check(g *rig, w workload, cls []*clientState, skew int64) []string {
	var bad []string
	var sessions, launches, swapOps, probeBad int64
	for _, cl := range cls {
		sessions += cl.sessions
		launches += cl.launches
		swapOps += cl.swapOps
		probeBad += cl.probeBad
		for i, err := range cl.errs {
			if i == 3 {
				bad = append(bad, fmt.Sprintf("client %d: %d more failed sessions", cl.id, len(cl.errs)-i))
				break
			}
			bad = append(bad, fmt.Sprintf("client %d: session failed: %v", cl.id, err))
		}
	}
	c := read(g)
	if want := launches + g.residentLaunches() + skew; c.launches != want {
		bad = append(bad, fmt.Sprintf("gpu.launches = %d, schedule has %d", c.launches, want))
	}
	if want := swapOps + skew; c.swapOps != want {
		bad = append(bad, fmt.Sprintf("memmgr.swap_ops = %d, closed form gives %d", c.swapOps, want))
	}
	if w.offloads {
		if want := sessions + skew; c.offloaded != want {
			bad = append(bad, fmt.Sprintf("core.offloaded = %d, want every one of %d sessions", c.offloaded, want))
		}
	}
	if probeBad > 0 {
		bad = append(bad, fmt.Sprintf("%d sessions read back a probe that differs from what they wrote", probeBad))
	}
	if w.attributed {
		// The node that served the sessions is the last one built.
		st := g.all[len(g.all)-1].rt.StatsSnapshot()
		var tenantNS int64
		for _, u := range st.Tenants {
			tenantNS += u.GPUTimeNS
		}
		if float64(tenantNS) < 0.99*float64(st.GPUTimeNS) {
			bad = append(bad, fmt.Sprintf("tenants are attributed %d of %d ns GPU time, under 99%%", tenantNS, st.GPUTimeNS))
		}
	}
	return bad
}
