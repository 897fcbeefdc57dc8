package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// shortRun runs a workload for exactly ops operations, with no child
// set-up probes.
func shortRun(t *testing.T, workload string, trace bool, seed uint64, ops int) result {
	t.Helper()
	cfg := config{
		workload: workload, seed: seed, trace: trace,
		workdir: t.TempDir(), minOps: ops, maxOps: ops,
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if trace {
		path := filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var tf struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &tf); err != nil || len(tf.TraceEvents) == 0 {
			t.Errorf("%s: trace file holds no events (err %v)", workload, err)
		}
	}
	return res
}

// TestEveryMetricEmitted runs each workload briefly, untraced and
// traced, and requires exactly the metrics BENCHMARK.json declares,
// with their units, and correct outputs.
func TestEveryMetricEmitted(t *testing.T) {
	bf, err := readBenchFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want := [2]map[string]string{{}, {}}
	for _, m := range bf.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[1][m.Name] = m.Unit
	}
	for _, name := range workloadNames() {
		for mode, trace := range []bool{false, true} {
			res := shortRun(t, name, trace, 7, 2*traceBlock)
			if !res.Correct || res.Failed != 0 || res.Attempted != 2*traceBlock {
				t.Errorf("%s trace=%v: correct %v, %d of %d failed", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want[mode]) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want[mode]))
			}
			for n, unit := range want[mode] {
				if m, ok := res.Metrics[n]; !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, trace, n, m, unit)
				}
			}
		}
	}
}

// TestSimRoundsPerDiamRepeats requires the simulated cost to be a
// function of the seed alone.
func TestSimRoundsPerDiamRepeats(t *testing.T) {
	for _, name := range workloadNames() {
		a := shortRun(t, name, false, 3, 5).Metrics["sim_rounds_per_diam"].Value
		b := shortRun(t, name, false, 3, 5).Metrics["sim_rounds_per_diam"].Value
		if a != b || a <= 0 {
			t.Errorf("%s: sim_rounds_per_diam %v then %v", name, a, b)
		}
	}
}

// TestChecksCatchCorruption corrupts outputs and requires the checks
// to reject them.
func TestChecksCatchCorruption(t *testing.T) {
	f := &farm{workdir: t.TempDir()}
	if err := f.setup(); err != nil {
		t.Fatal(err)
	}
	defer f.close()
	const seed = 11
	r, err := f.op(seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.verify(seed, &r); err != nil {
		t.Fatalf("intact artifact rejected: %v", err)
	}
	if err := f.replay(seed, r); err != nil {
		t.Fatalf("intact artifact differs from sweepd's: %v", err)
	}

	flipped := opResult{artifact: bytes.Replace(r.artifact, []byte(`"rounds_max":`), []byte(`"rounds_max":9`), 1)}
	if err := f.replay(seed, flipped); err == nil {
		t.Error("an artifact with a changed result line passed the sweepd comparison")
	}
	lines := bytes.SplitAfter(bytes.TrimSpace(r.artifact), []byte("\n"))
	truncated := opResult{artifact: bytes.Join(lines[:len(lines)-1], nil)}
	if err := f.verify(seed, &truncated); err == nil {
		t.Error("an artifact without its trailer passed verification")
	}
	if err := f.verify(seed+1, &r); err == nil {
		t.Error("an artifact of another spec passed verification")
	}

	c := workloads["pram-crcw-shuffle5"].make(config{}).(*cellBench)
	if err := c.setup(); err != nil {
		t.Fatal(err)
	}
	cr, err := c.op(seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.replay(seed, cr); err != nil {
		t.Fatalf("replay of an intact cell: %v", err)
	}
	cr.rounds++
	if err := c.replay(seed, cr); err == nil {
		t.Error("a cell result with the wrong round count passed the replay")
	}
}

// tampered wraps a workload and corrupts every operation's output.
type tampered struct{ bench }

func (t tampered) op(seed uint64) (opResult, error) {
	r, err := t.bench.op(seed)
	r.maxQ++
	if len(r.artifact) > 0 {
		r.artifact = r.artifact[:len(r.artifact)-2]
	}
	return r, err
}

// TestRunReportsFailures requires a run whose outputs are corrupted
// to count the failures and report itself incorrect.
func TestRunReportsFailures(t *testing.T) {
	for _, name := range []string{"route-star7", "scenario-farm"} {
		def := workloads[name]
		workloads["tampered"] = workloadDef{make: func(cfg config) bench { return tampered{def.make(cfg)} }}
		res := shortRun(t, "tampered", false, 5, 3)
		delete(workloads, "tampered")
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s with corrupted outputs: correct %v, %d of %d failed", name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(v, n=4), the spread the steadiness check uses.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
