package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the tests check the output
// against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// small runs a workload at test scale.
func small(t *testing.T, name string, traced bool) options {
	return options{
		workload: name,
		seed:     7,
		seconds:  0.4,
		trace:    traced,
		traceOut: filepath.Join(t.TempDir(), "trace.jsonl"),
		setups:   1,
	}
}

func TestWorkloadsPassChecksAndEmitEveryMetric(t *testing.T) {
	sp := readSpec(t)
	for _, w := range sp.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	// Every workload runs, including those BENCHMARK.json leaves out.
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := small(t, w.name, traced)
			rep, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !rep.Correct {
				t.Fatalf("%s trace=%v: checks failed: %v", w.name, traced, rep.checks)
			}
			if rep.Attempted < 1 || rep.Failed != 0 {
				t.Fatalf("%s trace=%v: attempted %d, failed %d", w.name, traced, rep.Attempted, rep.Failed)
			}
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: emitted %d metrics, BENCHMARK.json names %d", w.name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not emitted", w.name, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", w.name, traced, m.Name, got.Unit, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
			if traced {
				b, err := os.ReadFile(o.traceOut)
				if err != nil {
					t.Fatal(err)
				}
				if lines := strings.Count(string(b), "\n"); lines < 2 {
					t.Errorf("%s: trace file has %d lines", w.name, lines)
				}
			}
		}
	}
}

func TestWrongPinnedExpectationFailsTheRun(t *testing.T) {
	for _, w := range workloads {
		o := small(t, w.name, false)
		o.skew = 1
		rep, err := run(o)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Correct {
			t.Errorf("%s: a run checked against expectations off by one passed", w.name)
		}
		pinned := []string{"gpu.launches", "memmgr.swap_ops"}
		if w.offloads {
			pinned = append(pinned, "core.offloaded")
		}
		failed := strings.Join(rep.checks, "\n")
		for _, p := range pinned {
			if !strings.Contains(failed, p) {
				t.Errorf("%s: a wrong %s expectation did not fail the run; failed checks: %q", w.name, p, failed)
			}
		}
	}
}

func TestFoldRejectsSpansOutsideTheirParent(t *testing.T) {
	for _, tc := range []struct {
		name   string
		spans  []span
		broken bool
	}{
		{"nested", []span{
			{id: 1 << 8, start: 0, end: 100, layer: layerClient},
			{id: 2 << 8, parent: 1 << 8, start: 10, end: 90, layer: layerPipe},
			{id: 3 << 8, parent: 2 << 8, start: 20, end: 80, layer: layerHead},
		}, false},
		{"child overruns parent", []span{
			{id: 1 << 8, start: 0, end: 100, layer: layerClient},
			{id: 2 << 8, parent: 1 << 8, start: 10, end: 90, layer: layerPipe},
			{id: 3 << 8, parent: 2 << 8, start: 20, end: 95, layer: layerHead},
		}, true},
		{"missing server span", []span{
			{id: 1 << 8, start: 0, end: 100, layer: layerClient},
			{id: 2 << 8, parent: 1 << 8, start: 10, end: 90, layer: layerPipe},
		}, true},
	} {
		tr, err := newTracer()
		if err != nil {
			t.Fatal(err)
		}
		tr.bufs[0].spans = tc.spans
		tr.session(0).fold()
		err = tr.reconcile()
		tr.release()
		if (err != nil) != tc.broken {
			t.Errorf("%s: reconcile error = %v, want broken=%v", tc.name, err, tc.broken)
		}
	}
}
