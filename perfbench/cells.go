// The three single-cell workloads: each operation prices one sweep
// cell (one trial) through scenario.RunCellContext; the traced path
// makes the same calls RunCellContext makes, layer by layer.

package main

import (
	"context"
	"fmt"
	"time"

	"pramemu/internal/buildcache"
	"pramemu/internal/emul"
	"pramemu/internal/engine"
	"pramemu/internal/packet"
	"pramemu/internal/pram"
	"pramemu/internal/scenario"
	"pramemu/internal/simnet"
	"pramemu/internal/topology"
	"pramemu/internal/workload"
)

// workloads is the benchmark's workload table. README.md records why
// each one exists; the warm-up counts keep set-up near a fixed share
// of a second per workload.
var workloads = map[string]workloadDef{
	// Valiant two-phase routing of a random permutation on the 5,040-
	// node star graph, Algorithm 2.2 on the round engine, dense tables.
	"route-star7": {warmups: 10, make: func(config) bench {
		return &cellBench{cell: scenario.Cell{
			Topo: scenario.TopoRef{Family: "star", N: 7},
			Work: scenario.WorkRef{Name: "perm"},
		}}
	}},
	// One emulated CRCW PRAM step with 4 hot addresses on the leveled
	// 5-way shuffle (3,125 nodes): hashing, combining and read replies
	// on the hashed link state (Theorem 2.6).
	"pram-crcw-shuffle5": {warmups: 8, make: func(config) bench {
		return &cellBench{cell: scenario.Cell{
			Topo: scenario.TopoRef{Family: "shuffle", N: 5, Leveled: true},
			Work: scenario.WorkRef{Name: "khot", Hot: 4},
			Mode: scenario.ModeCRCW,
		}}
	}},
	// The star-graph permutation on the event engine at the fault
	// level of sweeps/event.json.
	"event-star7-faulty": {warmups: 3, make: func(config) bench {
		return &cellBench{cell: scenario.Cell{
			Topo:    scenario.TopoRef{Family: "star", N: 7},
			Work:    scenario.WorkRef{Name: "perm"},
			Engine:  scenario.EngineEvent,
			Latency: scenario.LatencySpec{Model: engine.LatencyJitter, Jitter: 2},
			Fault:   scenario.FaultSpec{Name: "faulty", LinkFailure: 0.1, Straggler: 0.2, Drop: 0.1},
		}}
	}},
	"scenario-farm": {warmups: 10, make: func(cfg config) bench { return &farm{workdir: cfg.workdir} }},
}

// emulMemory is the PRAM address space scenario gives emulation cells
// on networks of up to 2^24 nodes.
const emulMemory = 1 << 24

// cellBench runs one scenario cell per operation with one engine
// worker and one trial. Cell.Built stays empty, so every operation
// resolves its topology through the process-wide build cache, as a
// single-cell caller of RunCellContext does.
type cellBench struct {
	cell   scenario.Cell
	leases *engine.LeasePool
}

func topoParams(t scenario.TopoRef) topology.Params {
	return topology.Params{N: t.N, K: t.K}
}

func (c *cellBench) setup() error {
	c.cell.Workers, c.cell.Trials = 1, 1
	c.leases = engine.NewLeasePool(0)
	_, ref, err := buildcache.Default().Get(c.cell.Topo.Family, topoParams(c.cell.Topo), c.cell.Topo.Leveled)
	ref.Release()
	return err
}

func (c *cellBench) op(seed uint64) (opResult, error) {
	cell := c.cell
	cell.Seed = seed
	r, err := scenario.RunCellContext(context.Background(), cell)
	if err != nil {
		return opResult{}, err
	}
	return opResult{rounds: r.RoundsMax, maxQ: r.MaxQueue, roundsPerDiam: r.RoundsPerDiam}, nil
}

func (c *cellBench) verify(_ uint64, r *opResult) error {
	if r.rounds < 1 || r.maxQ < 1 {
		return fmt.Errorf("degenerate cell result: rounds %d, max queue %d", r.rounds, r.maxQ)
	}
	return nil
}

func (c *cellBench) replay(seed uint64, r opResult) error {
	got, err := c.traced(nil, seed)
	if err != nil {
		return err
	}
	if got.rounds != r.rounds || got.maxQ != r.maxQ {
		return fmt.Errorf("replay gives rounds %d, max queue %d; the cell reported %d, %d",
			got.rounds, got.maxQ, r.rounds, r.maxQ)
	}
	return nil
}

// traced prices the cell as RunCellContext does — build cache, then
// workload generation into a pooled arena, then the router — with a
// span around each call. It also checks that every request (and, on
// crcw, every read reply) was delivered.
func (c *cellBench) traced(tr *tracer, seed uint64) (r opResult, err error) {
	root := tr.begin("op", -1)
	defer tr.end(root)

	cache := buildcache.Default()
	before := cache.Stats()
	sp := tr.begin("buildcache.get", root)
	b, ref, err := cache.Get(c.cell.Topo.Family, topoParams(c.cell.Topo), c.cell.Topo.Leveled)
	tr.end(sp)
	if err != nil {
		return r, err
	}
	defer ref.Release()
	d := cache.Stats().Delta(before)
	tr.add("buildcache.hits", float64(d.Hits))
	tr.add("buildcache.misses", float64(d.Misses))

	arena := packet.GetArena()
	defer packet.PutArena(arena)
	sp = tr.begin("workload.generate", root)
	pkts, err := workload.Generate(c.cell.Work.Name, b, workload.Params{Hot: c.cell.Work.Hot}, arena, seed)
	tr.end(sp)
	if err != nil {
		return r, err
	}
	tr.add("workload.packets", float64(len(pkts)))
	tr.peak("packet.arena_kb", float64(arena.Bytes())/1024)

	if c.cell.Engine == scenario.EngineEvent {
		l, f := c.cell.Latency, c.cell.Fault
		ev := &engine.EventOptions{
			Model: l.Model, Base: l.Base, Jitter: l.Jitter, Scale: l.Scale, Gap: l.Gap,
			LinkFailure: f.LinkFailure, RepairTime: f.RepairTime,
			Straggler: f.Straggler, StragglerFactor: f.StragglerFactor,
			Drop: f.Drop, RetransmitAfter: f.RetransmitAfter,
		}
		sp = tr.begin("event.route", root)
		st, rerr := simnet.Route(b.Graph, pkts, simnet.Options{Seed: seed * 31, Workers: 1, Event: ev})
		dur := tr.end(sp)
		tr.add("event.route_ns", float64(dur.Nanoseconds()))
		tr.add("event.ticks", float64(st.Rounds))
		tr.add("event.retransmits", float64(st.Retransmits))
		return routed(st, rerr, len(pkts))
	}
	// Round-engine tables are recycled across operations, as scenario
	// recycles them across cells.
	lease := c.leases.Get("cell")
	defer c.leases.Put("cell", lease)
	if c.cell.Mode == scenario.ModeCRCW {
		return c.emulStep(tr, root, b, pkts, seed, lease)
	}
	var ms engine.MemStats
	sp = tr.begin("simnet.route", root)
	st, rerr := simnet.Route(b.Graph, pkts, simnet.Options{
		Seed: seed * 31, Workers: 1, MemStats: &ms, Lease: lease,
	})
	dur := tr.end(sp)
	engineCounts(tr, dur, st.Rounds, st.MaxQueue, ms)
	return routed(st, rerr, len(pkts))
}

// routed checks a routing run's delivery count.
func routed(st simnet.Stats, err error, packets int) (opResult, error) {
	if err != nil {
		return opResult{}, err
	}
	if st.DeliveredRequests != packets {
		return opResult{}, fmt.Errorf("delivered %d of %d packets", st.DeliveredRequests, packets)
	}
	return opResult{rounds: st.Rounds, maxQ: st.MaxQueue}, nil
}

// engineCounts records the round engine's per-operation figures.
func engineCounts(tr *tracer, route time.Duration, rounds, maxQ int, ms engine.MemStats) {
	tr.add("engine.route_ns", float64(route.Nanoseconds()))
	tr.add("engine.rounds", float64(rounds))
	tr.peak("engine.max_queue", float64(maxQ))
	tr.peak("engine.table_kb", float64(ms.TableBytes)/1024)
}

// emulStep prices one emulated PRAM step as scenario's emulation
// cells do: the workload's packets become the step's requests, a
// fresh emulator hashes them to modules, and the step routes with
// read replies and combining.
func (c *cellBench) emulStep(tr *tracer, root int, b topology.Built, pkts []*packet.Packet, seed uint64, lease *engine.Lease) (opResult, error) {
	var ms engine.MemStats
	sp := tr.begin("emul.new", root)
	net, err := emul.NewTopologyNetwork(b)
	var e *emul.Emulator
	if err == nil {
		net.MemStats, net.Lease = &ms, lease
		e, err = emul.New(net, emul.Config{Memory: emulMemory, Seed: seed * 31, Combine: true, Workers: 1})
	}
	tr.end(sp)
	if err != nil {
		return opResult{}, err
	}

	sp = tr.begin("emul.step_requests", root)
	gen, _ := workload.Lookup(c.cell.Work.Name)
	reqs := workload.StepRequests(gen.Class, net.Nodes(), pkts)
	tr.end(sp)
	requests, reads := 0, 0
	for _, q := range reqs {
		if q.Op != pram.OpNone {
			requests++
		}
		if q.Op == pram.OpRead {
			reads++
		}
	}

	sp = tr.begin("emul.route_requests", root)
	st, cost := e.RouteRequests(reqs)
	dur := tr.end(sp)
	engineCounts(tr, dur, st.Rounds, st.MaxQueue, ms)
	tr.add("emul.merges", float64(st.Merges))
	tr.add("emul.rehashes", float64(e.Rehashes()))
	tr.peak("emul.max_module_load", float64(st.MaxModuleLoad))
	if st.Requests != requests || st.Replies != reads {
		return opResult{}, fmt.Errorf("delivered %d of %d requests and %d of %d read replies",
			st.Requests, requests, st.Replies, reads)
	}
	return opResult{rounds: cost, maxQ: st.MaxQueue}, nil
}

// probe times cold topology builds through a fresh build cache: the
// build cost every workload's set-up pays.
func (c *cellBench) probe(tr *tracer, _ uint64) error {
	var ms []float64
	for i := 0; i < 3; i++ {
		cache := buildcache.New(buildcache.DefaultBudget)
		t := time.Now()
		_, ref, err := cache.Get(c.cell.Topo.Family, topoParams(c.cell.Topo), c.cell.Topo.Leveled)
		if err != nil {
			return err
		}
		ms = append(ms, 1e3*time.Since(t).Seconds())
		ref.Release()
	}
	tr.set("topology.build_ms", quantile(ms, 0.5))
	return nil
}

func (c *cellBench) close() {}
