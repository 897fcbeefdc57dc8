// The scenario-farm workload: each operation prices one small sweep
// spanning every topology family through the scenario layer and
// writes its artifact. The same specs also go through an in-process
// sweepd — for the byte-equality check of every run and the sweepd
// figures of the traced run — but not inside the timed window: sweepd
// fsyncs its journal once per cell into a directory in the checkout,
// and on a shared disk those flushes made a sweepd round trip vary
// twofold between runs.

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"pramemu/internal/buildcache"
	"pramemu/internal/scenario"
	"pramemu/internal/sweepd"
)

// farmCells is the number of cells farmSpec expands to.
const farmCells = 154

// pollInterval is the sweepd client's status poll period, well below
// a job's duration so it does not quantize the job time.
const pollInterval = 500 * time.Microsecond

// farmProbes is how many sweeps the traced run sends through sweepd,
// and prices timed and journaled locally, after its window.
const farmProbes = 10

// farmSpec is the spec of the operation with the given seed: all nine
// families at tiny sizes, five workloads, both ablation axes. A fresh
// seed gives a fresh spec hash, so sweepd's content-addressed cache
// never answers.
func farmSpec(seed uint64) scenario.Spec {
	return scenario.Spec{
		Name: "perfbench-farm",
		Topologies: []scenario.TopoRef{
			{Family: "star", N: 4}, {Family: "pancake", N: 4}, {Family: "ttree", N: 4},
			{Family: "shuffle", N: 3}, {Family: "debruijn", N: 5}, {Family: "hypercube", N: 5},
			{Family: "torus", N: 4, K: 2}, {Family: "mesh", N: 6}, {Family: "butterfly", N: 4},
		},
		Workloads: []scenario.WorkRef{
			{Name: "perm"}, {Name: "khot", Hot: 2}, {Name: "shift"}, {Name: "bitcomp"}, {Name: "ident"},
		},
		SkipPhase1:       []bool{false, true},
		Paged:            []bool{false, true},
		SkipIncompatible: true,
		Trials:           1,
		Pool:             1,
		Seed:             seed,
	}
}

// farm prices sweeps in process through one build cache, as sweepd
// does for its jobs, and keeps an in-process sweepd behind a loopback
// HTTP server for the checks and probes.
type farm struct {
	workdir string
	cache   *buildcache.Cache
	// The sweepd side, started on first use.
	dir    string
	srv    *sweepd.Server
	ts     *httptest.Server
	client *http.Client
	shed   int // submissions answered 429
}

func (f *farm) setup() error {
	f.cache = buildcache.New(buildcache.DefaultBudget)
	return nil
}

// startSweepd starts the in-process sweepd over a fresh DataDir.
func (f *farm) startSweepd() error {
	if f.srv != nil {
		return nil
	}
	f.dir = filepath.Join(f.workdir, fmt.Sprintf("sweepd-%d", os.Getpid()))
	if err := os.RemoveAll(f.dir); err != nil {
		return err
	}
	srv, err := sweepd.New(sweepd.Config{DataDir: f.dir, Workers: 1})
	if err != nil {
		return err
	}
	f.srv = srv
	f.ts = httptest.NewServer(srv)
	f.client = f.ts.Client()
	return nil
}

func (f *farm) close() {
	if f.ts != nil {
		f.ts.Close()
	}
	if f.srv != nil {
		f.srv.Close()
		os.RemoveAll(f.dir)
	}
}

func (f *farm) op(seed uint64) (opResult, error) {
	return f.traced(nil, seed)
}

// traced prices the spec through the scenario layer and writes its
// artifact, with a span around each call.
func (f *farm) traced(tr *tracer, seed uint64) (r opResult, err error) {
	root := tr.begin("op", -1)
	defer tr.end(root)
	spec := farmSpec(seed)
	before := f.cache.Stats()
	sp := tr.begin("scenario.run", root)
	results, err := scenario.RunContextOptions(context.Background(), spec, scenario.RunOptions{Cache: f.cache})
	tr.end(sp)
	if err != nil {
		return r, err
	}
	d := f.cache.Stats().Delta(before)
	tr.add("buildcache.hits", float64(d.Hits))
	tr.add("buildcache.misses", float64(d.Misses))
	sp = tr.begin("scenario.artifact", root)
	art, err := artifact(spec, results)
	tr.end(sp)
	return opResult{artifact: art}, err
}

// artifact writes results as the trailer-closed artifact sweepd's
// journaled runner publishes for spec.
func artifact(spec scenario.Spec, results []scenario.Result) ([]byte, error) {
	hash, err := scenario.SpecHash(spec)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := scenario.WriteArtifact(&buf, hash, results); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// verify checks the artifact's trailer — present, last, naming the
// spec's hash, the expected cell count and no failed cells — and
// reads its cells' mean rounds per diameter.
func (f *farm) verify(seed uint64, r *opResult) error {
	want, err := scenario.SpecHash(farmSpec(seed))
	if err != nil {
		return err
	}
	if err := checkArtifact(r.artifact, want); err != nil {
		return err
	}
	results, err := scenario.ReadResults(bytes.NewReader(r.artifact))
	if err != nil {
		return err
	}
	total := 0.0
	for _, res := range results {
		total += res.RoundsPerDiam
	}
	r.roundsPerDiam = total / float64(len(results))
	return nil
}

// checkArtifact verifies a farm artifact's trailer against the spec
// hash it must carry.
func checkArtifact(art []byte, hash string) error {
	t, err := scenario.VerifyTrailer(bytes.NewReader(art))
	if err != nil {
		return err
	}
	if t.SpecHash != hash || t.Cells != farmCells || t.Errors != 0 {
		return fmt.Errorf("artifact trailer has spec %s, %d cells, %d errors; want spec %s, %d cells, 0 errors",
			t.SpecHash, t.Cells, t.Errors, hash, farmCells)
	}
	return nil
}

// replay sends the same spec through sweepd and requires the artifact
// it serves to match the operation's byte for byte.
func (f *farm) replay(seed uint64, r opResult) error {
	if err := f.startSweepd(); err != nil {
		return err
	}
	served, err := f.roundTrip(nil, -1, seed)
	if err != nil {
		return err
	}
	detail, same, err := scenario.DiffArtifacts("local", r.artifact, "sweepd", served)
	if err != nil {
		return err
	}
	if !same {
		return fmt.Errorf("sweepd artifact differs from the local one: %s", detail)
	}
	return nil
}

// call sends one request and decodes a JSON answer into out, or
// returns the raw body when out is nil.
func (f *farm) call(method, path string, body []byte, out any) (int, []byte, error) {
	req, err := http.NewRequest(method, f.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if out != nil && resp.StatusCode != http.StatusTooManyRequests {
		if err := json.Unmarshal(b, out); err != nil {
			return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, b, nil
}

// roundTrip submits the spec of seed to sweepd, polls the job until
// it is done and downloads the artifact.
func (f *farm) roundTrip(tr *tracer, root int, seed uint64) ([]byte, error) {
	body, err := json.Marshal(farmSpec(seed))
	if err != nil {
		return nil, err
	}
	var st sweepd.Status
	sp := tr.begin("sweepd.submit", root)
	code, raw, err := f.call(http.MethodPost, "/sweeps", body, &st)
	for err == nil && code == http.StatusTooManyRequests {
		f.shed++
		time.Sleep(pollInterval)
		code, raw, err = f.call(http.MethodPost, "/sweeps", body, &st)
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if code != http.StatusAccepted {
		return nil, fmt.Errorf("submit answered %d (%s); every operation's spec must be new", code, bytes.TrimSpace(raw))
	}

	sp = tr.begin("sweepd.job", root)
	polls := 0
	for err == nil && (st.State == sweepd.StateQueued || st.State == sweepd.StateRunning) {
		time.Sleep(pollInterval)
		code, raw, err = f.call(http.MethodGet, "/sweeps/"+st.ID, nil, &st)
		polls++
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status answered %d (%s)", code, bytes.TrimSpace(raw))
		}
	}
	tr.end(sp)
	tr.add("sweepd.polls", float64(polls))
	if err != nil {
		return nil, err
	}
	if st.State != sweepd.StateDone || st.Errors != 0 {
		return nil, fmt.Errorf("job %s ended %s with %d failed cells: %s", st.ID, st.State, st.Errors, st.Error)
	}

	sp = tr.begin("sweepd.artifact", root)
	code, art, err := f.call(http.MethodGet, "/sweeps/"+st.ID+"/artifact", nil, nil)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("artifact answered %d", code)
	}
	return art, nil
}

// probe measures, from outside, what the timed operation hides or
// skips: cold builds and warm gets through a fresh build cache;
// farmProbes local sweeps with per-cell timing, to split cell time
// from expansion and sorting, and journaled, for the journal's cost;
// and farmProbes round trips through sweepd, whose artifacts must
// match the local ones.
func (f *farm) probe(tr *tracer, seed uint64) error {
	spec := farmSpec(seed)
	cache := buildcache.New(buildcache.DefaultBudget)
	t := time.Now()
	for _, tp := range spec.Topologies {
		_, ref, err := cache.Get(tp.Family, topoParams(tp), tp.Leveled)
		if err != nil {
			return err
		}
		ref.Release()
	}
	tr.set("topology.build_ms", 1e3*time.Since(t).Seconds())
	for i := 0; i < 20; i++ {
		for _, tp := range spec.Topologies {
			sp := tr.begin("buildcache.get", -1)
			_, ref, err := cache.Get(tp.Family, topoParams(tp), tp.Leveled)
			tr.end(sp)
			if err != nil {
				return err
			}
			ref.Release()
		}
	}

	if err := f.startSweepd(); err != nil {
		return err
	}
	var cellsMS, artKB float64
	out := filepath.Join(f.workdir, fmt.Sprintf("probe-%d.jsonl", os.Getpid()))
	for i := 0; i < farmProbes; i++ {
		spec := farmSpec(seed + uint64(i))
		timed := spec
		timed.Timing = true
		sp := tr.begin("scenario.run_timed", -1)
		results, err := scenario.RunContextOptions(context.Background(), timed, scenario.RunOptions{Cache: cache})
		tr.end(sp)
		if err != nil {
			return err
		}
		for _, r := range results {
			cellsMS += r.ElapsedMS
		}
		sp = tr.begin("scenario.journal", -1)
		_, err = scenario.RunJournaled(context.Background(), spec, out, scenario.JournalOptions{Cache: cache})
		tr.end(sp)
		if err != nil {
			return err
		}
		local, err := os.ReadFile(out)
		if err != nil {
			return err
		}
		artKB += float64(len(local)) / 1024
		if err := os.Remove(out); err != nil {
			return err
		}

		root := tr.begin("sweepd.round_trip", -1)
		served, err := f.roundTrip(tr, root, seed+uint64(i))
		tr.end(root)
		if err != nil {
			return err
		}
		if !bytes.Equal(served, local) {
			return fmt.Errorf("sweepd artifact for seed %d differs from the local journaled one", seed+uint64(i))
		}
	}
	timedRun := tr.spanMean("scenario.run_timed")
	journal := tr.spanMean("scenario.journal")
	run := tr.spanMean("scenario.run")
	tr.set("scenario.cells_ms", cellsMS/farmProbes)
	tr.set("scenario.self_ms", 1e3*timedRun-cellsMS/farmProbes)
	tr.set("scenario.journal_ms", 1e3*(journal-run))
	tr.set("scenario.artifact_kb", artKB/farmProbes)
	tr.set("sweepd.polls_per_job", tr.sums["sweepd.polls"]/farmProbes)
	tr.set("sweepd.shed_429", float64(f.shed))
	return nil
}
