// Command perfbench is the repository's benchmark: one closed-loop
// client driving one workload of the emulator for a fixed time,
// printing every end-to-end metric (or, traced, every per-layer
// metric) as the last line of standard output and checking that every
// operation's output is correct. README.md in this directory records
// why each workload exists and how to read the numbers.
//
//	perfbench --workload route-star7 --seed 1 --seconds 20 --trace 0
//	perfbench --ab 10 --seconds 20   # interleaved A/B steadiness check
//
// Run it through run.sh from the repository root, which builds it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	_ "pramemu/internal/topology/families"
)

// minOps is the fewest operations a run times, however long they take:
// p90 then has at least ten samples beyond it.
const minOps = 100

// rpdOps is how many timed operations sim_rounds_per_diam averages
// over. Fixing the count (rather than the time) makes the metric a
// pure function of the seed.
const rpdOps = 100

// setupProbes is how many extra cold set-ups, each in a fresh child
// process, a run times besides its own; setup_s is their median.
const setupProbes = 8

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the result line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// unscaled holds an untraced run's wall-clock and unscaled CPU
	// figures and the calibration kernel's time, printed on the line
	// before the result.
	unscaled map[string]metric
}

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string
	// probes, minOps and maxOps are setupProbes, minOps and unlimited
	// in a real run; tests shrink them.
	probes, minOps, maxOps int
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "base seed: operation i routes seed+i")
		seconds = flag.Float64("seconds", 20, "length of the timed window")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		workdir = flag.String("workdir", ".bench_build", "scratch directory for sweepd data and trace files")
		probe   = flag.Bool("setup-probe", false, "time one cold set-up, print it and exit (used by the run itself)")
		ab      = flag.Int("ab", 0, "A/B mode: run every workload this many times per set, interleaving sets A and B")
	)
	flag.Parse()
	if *ab > 0 {
		ok, err := runAB(os.Stdout, *ab, *seconds, *workdir)
		if err != nil {
			fatalf("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if _, ok := workloads[*name]; !ok {
		fatalf("unknown workload %q (known: %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	cfg := config{
		workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		workdir: *workdir, probes: setupProbes, minOps: minOps,
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fatalf("%v", err)
	}
	if *probe {
		s, err := timeSetup(cfg)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("%.9f\n", s)
		return
	}
	stampLine, err := json.Marshal(map[string]any{"stamp": machineStamp(cfg.workdir)})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(stampLine))
	res, err := run(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	if res.unscaled != nil {
		b, err := json.Marshal(map[string]any{"unscaled": res.unscaled})
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(b))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// opResult is one operation's output, as the checks read it.
type opResult struct {
	rounds, maxQ  int
	roundsPerDiam float64
	artifact      []byte // scenario-farm only
}

// bench is one workload's operation path. Every method is called from
// one goroutine.
type bench interface {
	// setup readies the operation path cold, with a fresh build cache.
	setup() error
	// op runs one untraced operation end to end.
	op(seed uint64) (opResult, error)
	// verify checks one operation's output outside the timed window
	// and completes r (scenario-farm fills roundsPerDiam here).
	verify(seed uint64, r *opResult) error
	// replay re-derives a sampled operation through the layers' public
	// functions and reports any difference from r.
	replay(seed uint64, r opResult) error
	// traced runs one operation as calls into each layer, recording a
	// span around each under a root span named "op".
	traced(tr *tracer, seed uint64) (opResult, error)
	// probe runs the traced run's post-window layer measurements.
	probe(tr *tracer, seed uint64) error
	// close stops whatever setup started.
	close()
}

// workloadDef names a workload's constructor and warm-up count.
type workloadDef struct {
	warmups int
	make    func(cfg config) bench
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// timeSetup runs one cold set-up plus the workload's warm-up
// operations and returns its CPU time in seconds.
func timeSetup(cfg config) (float64, error) {
	b, secs, err := setup(cfg)
	if b != nil {
		b.close()
	}
	return secs, err
}

// setup readies a bench: cold set-up, the fixed warm-up operations
// (seeds base .. base+warmups-1, outputs checked and discarded) and a
// collection, so the timed window starts from a clean heap. It
// returns the CPU time all that took.
func setup(cfg config) (bench, float64, error) {
	def := workloads[cfg.workload]
	start := cpuSeconds()
	b := def.make(cfg)
	if err := b.setup(); err != nil {
		return b, 0, fmt.Errorf("%s set-up: %w", cfg.workload, err)
	}
	for i := 0; i < def.warmups; i++ {
		s := cfg.seed + uint64(i)
		r, err := b.op(s)
		if err == nil {
			err = b.verify(s, &r)
		}
		if err != nil {
			return b, 0, fmt.Errorf("%s warm-up op %d: %w", cfg.workload, i, err)
		}
	}
	runtime.GC()
	return b, cpuSeconds() - start, nil
}

// probeSetups times cfg.probes cold set-ups, each in a fresh child
// process running this binary, so none of them inherits warm pools.
func probeSetups(cfg config) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < cfg.probes; i++ {
		cmd := exec.Command(exe, "--setup-probe", "--workload", cfg.workload,
			"--seed", fmt.Sprint(cfg.seed), "--workdir", cfg.workdir)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		var s float64
		if _, err := fmt.Sscan(string(b), &s); err != nil {
			return nil, fmt.Errorf("setup probe output %q: %w", b, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// sample is one timed operation the run replays after the window.
type sample struct {
	seed uint64
	r    opResult
}

// replayEvery and replayMax pick the replayed sample: every
// replayEvery-th operation of the window, at most replayMax of them.
const (
	replayEvery = 25
	replayMax   = 4
)

// run executes one benchmark run and assembles its result line.
// Operation costs are process CPU time (user plus system, every
// thread, the garbage collector's included), scaled to the reference
// machine by the calibration kernel: on a shared VM, wall time also
// counts the time the hypervisor gives the CPU to other guests, and
// CPU time follows the neighbours' cache and memory load. The
// unscaled figures go to the result's unscaled field.
func run(cfg config) (result, error) {
	var setups []float64
	if !cfg.trace {
		var err error
		if setups, err = probeSetups(cfg); err != nil {
			return result{}, err
		}
	}
	b, own, err := setup(cfg)
	if b != nil {
		defer b.close()
	}
	if err != nil {
		return result{}, err
	}
	if cfg.trace {
		return runTraced(cfg, b)
	}
	setups = append(setups, own)

	var (
		wall, cpu []float64 // seconds per timed operation
		calib     = []float64{calibrate()}
		lastCal   = time.Now()
	)
	ops, failed, rpd := window(cfg, b, func(_ int, s uint64) (opResult, error) {
		if time.Since(lastCal) >= calibPeriod {
			calib = append(calib, calibrate())
			lastCal = time.Now()
		}
		c0, t := cpuSeconds(), time.Now()
		r, err := b.op(s)
		wall = append(wall, time.Since(t).Seconds())
		cpu = append(cpu, cpuSeconds()-c0)
		return r, err
	})
	scale := calibRefMS / 1e3 / quantile(calib, 0.5)
	return result{
		Correct: failed == 0, Attempted: ops, Failed: failed,
		Metrics: map[string]metric{
			"ops_per_s_ref":       {float64(len(cpu)) / (sum(cpu) * scale), "1/s"},
			"op_ms_p50_ref":       {1e3 * scale * quantile(cpu, 0.50), "ms"},
			"op_ms_p90_ref":       {1e3 * scale * quantile(cpu, 0.90), "ms"},
			"setup_s":             {scale * quantile(setups, 0.50), "s"},
			"peak_rss_mb":         {peakRSSMB(), "MB"},
			"sim_rounds_per_diam": {mean(rpd), "rounds/diam"},
		},
		unscaled: map[string]metric{
			"ops_per_s":      {float64(len(wall)) / sum(wall), "1/s"},
			"op_ms_p50":      {1e3 * quantile(wall, 0.50), "ms"},
			"op_ms_p90":      {1e3 * quantile(wall, 0.90), "ms"},
			"ops_per_cpu_s":  {float64(len(cpu)) / sum(cpu), "1/s"},
			"op_cpu_ms_p50":  {1e3 * quantile(cpu, 0.50), "ms"},
			"op_cpu_ms_p90":  {1e3 * quantile(cpu, 0.90), "ms"},
			"calibration_ms": {1e3 * quantile(calib, 0.5), "ms"},
			"setup_cpu_s":    {quantile(setups, 0.50), "s"},
		},
	}, nil
}

// window runs the timed window: operation i, with seed
// cfg.seed+warmups+i, through do until the window's time is up and at
// least cfg.minOps operations have run (at most cfg.maxOps). It checks
// every output outside do, then replays a sample of the operations.
// It returns how many operations ran and failed, and the rounds per
// diameter of the first rpdOps that succeeded.
func window(cfg config, b bench, do func(i int, seed uint64) (opResult, error)) (ops, failed int, rpd []float64) {
	var samples []sample
	first := cfg.seed + uint64(workloads[cfg.workload].warmups)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for ; ops < cfg.minOps || time.Now().Before(deadline); ops++ {
		if cfg.maxOps > 0 && ops >= cfg.maxOps {
			break
		}
		s := first + uint64(ops)
		r, err := do(ops, s)
		if err == nil {
			err = b.verify(s, &r)
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: op seed %d: %v\n", s, err)
			continue
		}
		if len(rpd) < rpdOps {
			rpd = append(rpd, r.roundsPerDiam)
		}
		if ops%replayEvery == 0 && len(samples) < replayMax {
			samples = append(samples, sample{s, r})
		}
	}
	for _, sm := range samples {
		if err := b.replay(sm.seed, sm.r); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: replay of op seed %d: %v\n", sm.seed, err)
		}
	}
	return ops, failed, rpd
}

// quantile returns the nearest-rank q-quantile of v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

// peakRSSMB is the process's peak resident set (ru_maxrss, KiB on
// Linux) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
