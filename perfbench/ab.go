// The interleaved A/B mode: the same binary run as two sets of runs,
// alternating between the sets, with each set's median and quartiles
// per end-to-end metric and a verdict on whether the sets agree within
// the bounds BENCHMARK.json fixes. Machine drift lands on both sets
// alike, so a disagreement means the benchmark is too noisy for its
// bounds.

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchFile is the part of BENCHMARK.json the A/B verdict reads.
type benchFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchFile(path string) (benchFile, error) {
	var bf benchFile
	b, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// quartiles returns the first quartile, median and third quartile of
// v by the method of Python's statistics.quantiles(v, n=4) (the
// "exclusive" method).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	if m == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// runChild runs one benchmark run of this binary and parses its
// result line and the unscaled line before it.
func runChild(exe string, args ...string) (result, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%v: %w", args, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%v: result line: %w", args, err)
	}
	var un struct {
		Unscaled map[string]metric `json:"unscaled"`
	}
	if len(lines) < 2 || json.Unmarshal(lines[len(lines)-2], &un) != nil || un.Unscaled == nil {
		return result{}, fmt.Errorf("%v: no unscaled line before the result", args)
	}
	res.unscaled = un.Unscaled
	return res, nil
}

// unscaledPrefix marks the A/B table's rows for the unscaled line's
// figures, which no bound applies to.
const unscaledPrefix = "unscaled."

// runAB runs every workload runs times in each of two sets, alternating
// which set goes first, and reports whether the sets agree: for every
// end-to-end metric, each set's quartile spread within the metric's
// bound, and the two medians apart by no more than the bound, in
// either direction. Run i of both sets uses seed i+1.
func runAB(w io.Writer, runs int, seconds float64, workdir string) (bool, error) {
	bf, err := readBenchFile("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	names := workloadNames()
	// vals[set][workload][metric] holds one value per run.
	vals := [2]map[string]map[string][]float64{{}, {}}
	for r := 0; r < runs; r++ {
		for _, n := range names {
			for k := 0; k < 2; k++ {
				set := (r + k) % 2
				res, err := runChild(exe, "--workload", n, "--seed", fmt.Sprint(r+1),
					"--seconds", fmt.Sprint(seconds), "--trace", "0", "--workdir", workdir)
				if err != nil {
					return false, err
				}
				if !res.Correct {
					return false, fmt.Errorf("%s seed %d: %d of %d operations failed", n, r+1, res.Failed, res.Attempted)
				}
				if vals[set][n] == nil {
					vals[set][n] = map[string][]float64{}
				}
				for name, m := range res.Metrics {
					vals[set][n][name] = append(vals[set][n][name], m.Value)
				}
				for name, m := range res.unscaled {
					vals[set][n][unscaledPrefix+name] = append(vals[set][n][unscaledPrefix+name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "perfbench: ab run %d/%d %s set %c done\n", r+1, runs, n, 'A'+set)
			}
		}
	}

	ok := true
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA q1\tA median\tA q3\tB q1\tB median\tB q3\tspread A\tspread B\tshift\tbound\tverdict")
	// stats holds one figure's quartiles per set, spreads and shift.
	type stats struct{ a1, am, a3, b1, bm, b3, spreadA, spreadB, shift float64 }
	get := func(n, name string) stats {
		var s stats
		s.a1, s.am, s.a3 = quartiles(vals[0][n][name])
		s.b1, s.bm, s.b3 = quartiles(vals[1][n][name])
		s.spreadA, s.spreadB, s.shift = (s.a3-s.a1)/s.am, (s.b3-s.b1)/s.bm, (s.bm-s.am)/s.am
		return s
	}
	row := func(n, name string, s stats, bound, verdict string) {
		fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%.5g\t%.5g\t%.5g\t%.5g\t%.2f%%\t%.2f%%\t%+.2f%%\t%s\t%s\n",
			n, name, s.a1, s.am, s.a3, s.b1, s.bm, s.b3, 100*s.spreadA, 100*s.spreadB, 100*s.shift, bound, verdict)
	}
	for _, n := range names {
		for _, e := range bf.EndToEnd {
			s := get(n, e.Name)
			verdict := "agree"
			switch {
			case math.Abs(s.shift) > e.Bound:
				verdict = "DISAGREE: median moved"
			case s.spreadA > e.Bound || s.spreadB > e.Bound:
				verdict = "DISAGREE: spread over bound"
			case s.spreadA > e.Bound/3 || s.spreadB > e.Bound/3:
				verdict = "agree (spread over bound/3)"
			}
			if verdict[0] == 'D' {
				ok = false
			}
			row(n, e.Name, s, fmt.Sprintf("%.0f%%", 100*e.Bound), verdict)
		}
		// The unscaled figures, for comparison: what the costs would
		// read without the calibration kernel's scale.
		var un []string
		for name := range vals[0][n] {
			if strings.HasPrefix(name, unscaledPrefix) {
				un = append(un, name)
			}
		}
		sort.Strings(un)
		for _, name := range un {
			row(n, name, get(n, name), "-", "not gated")
		}
	}
	tw.Flush()
	if ok {
		fmt.Fprintln(w, "verdict: the two sets agree within every bound")
	} else {
		fmt.Fprintln(w, "verdict: the two sets DISAGREE")
	}
	return ok, nil
}
