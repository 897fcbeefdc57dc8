// The traced run: spans recorded from outside around each call into a
// layer's public functions, kept in memory and written at the end as
// Chrome trace-event JSON, plus the per-layer metrics derived from
// them.

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"
)

// span is one timed call into a layer.
type span struct {
	name       string
	op         int // traced operation index; -1 for post-window probes
	parent     int // index of the enclosing span; -1 for a root
	start, end time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer records spans and per-layer counts. A nil *tracer records
// nothing, so the replay checks run the traced code path untraced.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
	sums  map[string]float64 // summed over traced operations
	vals  map[string]float64 // set once, or kept at their maximum
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), op: -1, sums: map[string]float64{}, vals: map[string]float64{}}
}

// begin opens a span under parent (-1 for a root) and returns its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, op: t.op, parent: parent, start: time.Since(t.t0)})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	if t == nil {
		return 0
	}
	t.spans[i].end = time.Since(t.t0)
	return t.spans[i].dur()
}

// add sums v into a per-operation counter.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.sums[name] += v
	}
}

// peak keeps the largest v seen under name.
func (t *tracer) peak(name string, v float64) {
	if t != nil && v > t.vals[name] {
		t.vals[name] = v
	}
}

// set records a value measured once per run.
func (t *tracer) set(name string, v float64) {
	if t != nil {
		t.vals[name] = v
	}
}

// spanMean returns the mean duration of the spans named name, in
// seconds (0 when there are none).
func (t *tracer) spanMean(name string) float64 {
	total, n := time.Duration(0), 0
	for _, s := range t.spans {
		if s.name == name {
			total += s.dur()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total.Seconds() / float64(n)
}

// How a per-layer metric is derived from the trace.
const (
	spanMS = iota // mean duration of its span, in ms
	spanUS        // mean duration of its span, in µs
	perOp         // summed counter divided by traced operations
	value         // recorded value (set, peak or derived)
)

// layerMetrics lists every per-layer metric of a traced run. A layer
// a workload does not call reports 0.
var layerMetrics = []struct {
	name, unit string
	kind       int
	key        string // span or counter name; "" = the metric's name
}{
	{"topology.build_ms", "ms", value, ""},
	{"buildcache.hits_per_op", "count", perOp, "buildcache.hits"},
	{"buildcache.misses_per_op", "count", perOp, "buildcache.misses"},
	{"buildcache.get_us", "us", spanUS, "buildcache.get"},
	{"workload.generate_ms", "ms", spanMS, "workload.generate"},
	{"workload.packets_per_op", "count", perOp, "workload.packets"},
	{"packet.arena_kb", "KB", value, ""},
	{"simnet.route_ms", "ms", spanMS, "simnet.route"},
	{"engine.host_ns_per_round", "ns", value, ""},
	{"engine.max_queue", "count", value, ""},
	{"engine.table_kb", "KB", value, ""},
	{"emul.step_requests_ms", "ms", spanMS, "emul.step_requests"},
	{"emul.new_ms", "ms", spanMS, "emul.new"},
	{"emul.route_requests_ms", "ms", spanMS, "emul.route_requests"},
	{"emul.merges_per_op", "count", perOp, "emul.merges"},
	{"emul.rehashes_per_op", "count", perOp, "emul.rehashes"},
	{"emul.max_module_load", "count", value, ""},
	{"event.route_ms", "ms", spanMS, "event.route"},
	{"event.host_ns_per_tick", "ns", value, ""},
	{"event.ticks_per_op", "count", perOp, "event.ticks"},
	{"event.retransmits_per_op", "count", perOp, "event.retransmits"},
	{"scenario.run_ms", "ms", spanMS, "scenario.run"},
	{"scenario.artifact_ms", "ms", spanMS, "scenario.artifact"},
	{"scenario.cells_ms", "ms", value, ""},
	{"scenario.self_ms", "ms", value, ""},
	{"scenario.journal_ms", "ms", value, ""},
	{"scenario.artifact_kb", "KB", value, ""},
	{"sweepd.submit_ms", "ms", spanMS, "sweepd.submit"},
	{"sweepd.job_ms", "ms", spanMS, "sweepd.job"},
	{"sweepd.polls_per_job", "count", value, ""},
	{"sweepd.artifact_ms", "ms", spanMS, "sweepd.artifact"},
	{"sweepd.shed_429", "count", value, ""},
	{"go.alloc_kb_per_op", "KB", value, ""},
	{"go.gc_per_op", "count", value, ""},
	{"process.cpu_ms_per_op", "ms", value, ""},
	{"trace.overhead_pct", "%", value, ""},
	{"trace.span_coverage_pct", "%", value, ""},
}

// traceBlock is how many operations run in a row on one path before
// the traced run switches path. Switching every operation would make
// each path evict the other's engine tables from the CPU caches.
const traceBlock = 8

// runTraced is the traced run: blocks of untraced and traced
// operations alternate for the window, so both see the same machine
// state. The untraced ones give the Go runtime and process figures
// and the baseline for trace.overhead_pct, the traced operations'
// extra CPU time.
func runTraced(cfg config, b bench) (result, error) {
	tr := newTracer()
	var (
		plain, traced     []float64 // CPU seconds per operation
		allocB, gcs       float64   // over untraced operations
		m0, m1            runtime.MemStats
		rootTime, covered time.Duration
	)
	ops, failed, _ := window(cfg, b, func(i int, s uint64) (opResult, error) {
		untraced := i/traceBlock%2 == 0
		runtime.ReadMemStats(&m0)
		c0 := cpuSeconds()
		var (
			r   opResult
			err error
		)
		if untraced {
			r, err = b.op(s)
		} else {
			tr.op = i
			r, err = b.traced(tr, s)
		}
		c := cpuSeconds() - c0
		runtime.ReadMemStats(&m1)
		if untraced {
			plain = append(plain, c)
			allocB += float64(m1.TotalAlloc - m0.TotalAlloc)
			gcs += float64(m1.NumGC - m0.NumGC)
		} else {
			traced = append(traced, c)
		}
		return r, err
	})
	tr.op = -1
	if err := b.probe(tr, cfg.seed+uint64(workloads[cfg.workload].warmups+ops)); err != nil {
		return result{}, fmt.Errorf("%s layer probe: %w", cfg.workload, err)
	}

	for i, s := range tr.spans {
		if s.name == "op" {
			rootTime += s.dur()
		} else if s.parent >= 0 && tr.spans[s.parent].name == "op" {
			covered += tr.spans[i].dur()
		}
	}
	if n := float64(len(plain)); n > 0 {
		tr.set("go.alloc_kb_per_op", allocB/1024/n)
		tr.set("go.gc_per_op", gcs/n)
	}
	tr.set("process.cpu_ms_per_op", 1e3*mean(plain))
	if len(plain) > 0 && len(traced) > 0 {
		tr.set("trace.overhead_pct", 100*(mean(traced)-mean(plain))/mean(plain))
	}
	if rootTime > 0 {
		tr.set("trace.span_coverage_pct", 100*covered.Seconds()/rootTime.Seconds())
	}
	ratio := func(name, num, den string) {
		if tr.sums[den] > 0 {
			tr.set(name, tr.sums[num]/tr.sums[den])
		}
	}
	ratio("engine.host_ns_per_round", "engine.route_ns", "engine.rounds")
	ratio("event.host_ns_per_tick", "event.route_ns", "event.ticks")

	m := map[string]metric{}
	for _, lm := range layerMetrics {
		key := lm.key
		if key == "" {
			key = lm.name
		}
		var v float64
		switch lm.kind {
		case spanMS:
			v = 1e3 * tr.spanMean(key)
		case spanUS:
			v = 1e6 * tr.spanMean(key)
		case perOp:
			if len(traced) > 0 {
				v = tr.sums[key] / float64(len(traced))
			}
		case value:
			v = tr.vals[key]
		}
		m[lm.name] = metric{v, lm.unit}
	}

	path := filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := writeChromeTrace(path, tr, machineStamp(cfg.workdir)); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: trace written to %s\n", path)
	writeSelfTimes(os.Stderr, tr)
	return result{Correct: failed == 0, Attempted: ops, Failed: failed, Metrics: m}, nil
}

// writeChromeTrace writes the spans as Chrome trace-event JSON
// (complete "X" events, microsecond timestamps), loadable in
// chrome://tracing or Perfetto.
func writeChromeTrace(path string, tr *tracer, stamp map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(tr.spans))
	for i, s := range tr.spans {
		parent := ""
		if s.parent >= 0 {
			parent = tr.spans[s.parent].name
		}
		events[i] = event{
			Name: s.name, Ph: "X", PID: 1, TID: 1,
			TS:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64(s.dur().Nanoseconds()) / 1e3,
			Args: map[string]any{"op": s.op, "parent": parent},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "otherData": stamp})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

// selfTimes aggregates the spans by name: calls, total time and self
// time (a span's duration minus its child spans'). Child spans never
// overlap — the client is one goroutine — so the children's sum is
// the time they cover.
type selfTime struct {
	name        string
	calls       int
	total, self time.Duration
}

func selfTimes(tr *tracer) []selfTime {
	child := make([]time.Duration, len(tr.spans))
	for _, s := range tr.spans {
		if s.parent >= 0 {
			child[s.parent] += s.dur()
		}
	}
	by := map[string]*selfTime{}
	for i, s := range tr.spans {
		st := by[s.name]
		if st == nil {
			st = &selfTime{name: s.name}
			by[s.name] = st
		}
		st.calls++
		st.total += s.dur()
		st.self += s.dur() - child[i]
	}
	out := make([]selfTime, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// writeSelfTimes prints the per-layer self-time table.
func writeSelfTimes(w io.Writer, tr *tracer) {
	rows := selfTimes(tr)
	var all time.Duration
	for _, r := range rows {
		all += r.self
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "span\tcalls\ttotal_ms\tself_ms\tself_%\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t%.1f\t\n", r.name, r.calls,
			1e3*r.total.Seconds(), 1e3*r.self.Seconds(), 100*r.self.Seconds()/all.Seconds())
	}
	tw.Flush()
}
