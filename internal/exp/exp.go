// Package exp regenerates every table and figure of the paper's
// evaluation (§5) on the simulated cluster. Each experiment builds the
// corresponding hardware model from scratch, replays the paper's
// workloads and reports the same rows/series the paper plots, plus the
// counters it annotates (swap operations, migrations).
//
// Absolute numbers differ from the paper — the substrate is a model,
// not the authors' testbed — but the shapes are the reproduction
// target: who wins, by what rough factor, and where behaviour changes
// (see EXPERIMENTS.md for the side-by-side reading).
package exp

import (
	"fmt"
	"io"
	"strings"
	"time"

	"gvrt/internal/core"
	"gvrt/internal/cudart"
	"gvrt/internal/gpu"
	"gvrt/internal/sim"
	"gvrt/internal/transport"
	"gvrt/internal/workload"

	"gvrt/internal/frontend"
)

// Options tunes an experiment run.
type Options struct {
	// Scale is the wall-seconds-per-model-second factor; 0 means 1e-3
	// (one model second per wall millisecond).
	Scale float64
	// Runs is the number of repetitions averaged for the randomized
	// experiments (the paper uses 10); 0 means 3.
	Runs int
	// Seed drives the random job draws; runs use Seed, Seed+1, ...
	Seed int64
	// Verbose, when set, receives progress lines.
	Verbose func(format string, args ...any)
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 1e-3
	}
	return o.Scale
}

func (o Options) runs() int {
	if o.Runs <= 0 {
		return 3
	}
	return o.Runs
}

func (o Options) logf(format string, args ...any) {
	if o.Verbose != nil {
		o.Verbose(format, args...)
	}
}

// Table is one regenerated table or figure.
type Table struct {
	// ID is the experiment identifier, e.g. "fig5".
	ID string
	// Title describes the experiment.
	Title string
	// Paper summarises what the original figure showed, for
	// side-by-side reading.
	Paper string
	// Header and Rows are the regenerated series.
	Header []string
	Rows   [][]string
	// Notes carry calibration or methodology remarks.
	Notes []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.Paper != "" {
		fmt.Fprintf(w, "paper: %s\n", t.Paper)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// secs formats a model duration as seconds with one decimal.
func secs(d time.Duration) string {
	return fmt.Sprintf("%.1f", d.Seconds())
}

// nodeEnv is a freshly built single-node environment.
type nodeEnv struct {
	clock *sim.Clock
	crt   *cudart.Runtime
	rt    *core.Runtime
}

// newNodeEnv builds devices + CUDA runtime + gvrt runtime.
func newNodeEnv(o Options, cfg core.Config, specs ...gpu.Spec) (*nodeEnv, error) {
	clock := sim.NewClock(o.scale())
	devs := make([]*gpu.Device, len(specs))
	for i, s := range specs {
		devs[i] = gpu.NewDevice(i, s, clock)
	}
	crt := cudart.New(clock, devs...)
	rt, err := core.New(crt, cfg)
	if err != nil {
		return nil, err
	}
	return &nodeEnv{clock: clock, crt: crt, rt: rt}, nil
}

// connect opens an in-process gvrt client.
func (e *nodeEnv) connect(int) (workload.CUDA, error) {
	c, s := transport.Pipe()
	go e.rt.Serve(s)
	return frontend.Connect(c), nil
}

// runGvrtBatch runs a batch on a fresh gvrt node and returns the result
// plus runtime metrics.
func runGvrtBatch(o Options, cfg core.Config, specs []gpu.Spec, apps []workload.App) (workload.BatchResult, core.Metrics, error) {
	env, err := newNodeEnv(o, cfg, specs...)
	if err != nil {
		return workload.BatchResult{}, core.Metrics{}, err
	}
	defer env.rt.Close()
	res := workload.RunBatch(env.clock, apps, env.connect)
	return res, env.rt.Metrics(), nil
}

// runBareBatch runs a batch directly on a fresh bare CUDA runtime,
// placing job i on device i modulo the device count (the strongest
// bare-runtime configuration: a user manually spreading jobs).
func runBareBatch(o Options, specs []gpu.Spec, apps []workload.App) (workload.BatchResult, error) {
	clock, crt := bareNode(o, specs)
	res := workload.RunBatch(clock, apps, func(i int) (workload.CUDA, error) {
		return workload.NewBareClient(crt, i%len(specs))
	})
	return res, nil
}

// bareNode builds a fresh bare CUDA runtime over specs.
func bareNode(o Options, specs []gpu.Spec) (*sim.Clock, *cudart.Runtime) {
	clock := sim.NewClock(o.scale())
	devs := make([]*gpu.Device, len(specs))
	for i, s := range specs {
		devs[i] = gpu.NewDevice(i, s, clock)
	}
	return clock, cudart.New(clock, devs...)
}

// threeGPUNode is the §5.1 node: two Tesla C2050s and one Tesla C1060.
func threeGPUNode() []gpu.Spec {
	return []gpu.Spec{gpu.TeslaC2050, gpu.TeslaC2050, gpu.TeslaC1060}
}

// unbalancedNode is the §5.3.4 node: two C2050s and a Quadro 2000.
func unbalancedNode() []gpu.Spec {
	return []gpu.Spec{gpu.TeslaC2050, gpu.TeslaC2050, gpu.Quadro2000}
}

// All returns every experiment regenerator keyed by ID, in report
// order.
func All() []struct {
	ID  string
	Run func(Options) (*Table, error)
} {
	return []struct {
		ID  string
		Run func(Options) (*Table, error)
	}{
		{"table2", Table2},
		{"ctxlimit", CtxLimit},
		{"fig1", Fig1},
		{"fig5", Fig5},
		{"fig6", Fig6},
		{"fig7", Fig7},
		{"fig8", Fig8},
		{"fig9", Fig9},
		{"fig10", Fig10},
		{"fig11", Fig11},
		{"abl-vgpus", AblationVGPUCount},
		{"abl-defer", AblationDeferral},
		{"abl-swap", AblationInterSwap},
		{"abl-sched", AblationSchedulers},
		{"abl-ckpt", AblationCheckpoint},
		{"abl-offload", AblationOffloadThreshold},
	}
}
