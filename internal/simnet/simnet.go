// Package simnet is a synchronous packet-routing simulator for
// arbitrary point-to-point interconnection networks, used for the
// "parallel model" simulations of the n-star graph (Algorithm 2.2)
// and the binary hypercube baseline. One round moves at most one
// packet across each directed link; per-link queues are FIFO, the
// discipline the paper prescribes for leveled networks.
//
// Routing is Valiant two-phase: each packet first travels to a
// uniformly random intermediate node along the topology's
// deterministic path, then on to its true destination ("select a
// random intermediate node ... send each packet from its intermediate
// node to its correct destination"). Replies retrace the recorded
// request path in reverse, and CRCW combining (Theorem 2.6) merges
// same-address requests that meet in a queue during the deterministic
// final approach.
//
// The round loop runs on the shared internal/engine core: link queues
// are sharded over a worker pool, and the result is bit-for-bit
// identical for any Workers setting.
package simnet

import (
	"fmt"

	"pramemu/internal/engine"
	"pramemu/internal/packet"
	"pramemu/internal/queue"
	"pramemu/internal/router"
	"pramemu/internal/topology"
)

// Topology is the unified graph interface of internal/topology; the
// simulator routes on any registered family. The alias keeps existing
// implementations and callers source-compatible.
type Topology = topology.Graph

// TakenSensitive re-exports the capability interface for topologies
// whose NextHop depends on the hops already taken within a phase (the
// d-way shuffle and the de Bruijn graph, whose unique paths have
// fixed length n). For such topologies two packets may combine only
// at equal progress; memoryless topologies (star, hypercube, ring)
// may combine whenever node and destination match.
type TakenSensitive = topology.TakenSensitive

// Options configures a routing run (the contract shared with
// internal/leveled).
type Options = router.Options

// Stats aggregates one routing run; the fields mirror the measures of
// §2.2.1 (routing time, queue size, delay).
type Stats = router.Stats

// sim holds the immutable per-run configuration; all mutable state
// lives in the engine's shard contexts.
type sim struct {
	router.Core
	topo   Topology
	record bool
	// match is the combining-host test: phase 2, plus equal per-phase
	// progress on taken-sensitive topologies.
	match func(host, p *packet.Packet) bool
	// slotKeys selects the dense link encoding node*stride + slot,
	// used whenever the run spawns no replies. Replies retrace
	// recorded paths as (from, to) node pairs with no slot attached,
	// and on directed topologies the reverse hop has no forward slot
	// at all, so reply-bearing runs keep the packed-pair encoding for
	// forward and reverse traffic alike (sharing one queue per
	// directed link between requests and replies, as §2.2.1's
	// one-packet-per-link round model requires).
	slotKeys bool
	stride   uint64 // maximum out-degree, the slot-key stride
}

// edgeKey packs a directed (from, to) node pair into one 64-bit link
// key, 32 bits per endpoint. topology.MaxNodes (2^31) keeps both
// halves in range, so the encoding cannot collide.
func edgeKey(from, to int) uint64 { return uint64(from)<<32 | uint64(to) }

// replyKey is the Core's reverse-link encoding: replies retrace over
// the same packed pairs as the forward traffic of a reply-bearing run.
func replyKey(_, from, to int) uint64 { return edgeKey(from, to) }

// maxDegree scans the topology for the widest node, the stride of the
// dense link encoding.
func maxDegree(topo Topology) int {
	deg := 0
	for v := 0; v < topo.Nodes(); v++ {
		if d := topo.Degree(v); d > deg {
			deg = d
		}
	}
	return deg
}

// Route routes pkts through topo. Packets need unique IDs and
// endpoints within range. It mutates the packets and returns Stats.
// A topology larger than topology.MaxNodes (2^31 nodes — the bound at
// which recorded path entries and packed 32-bit link-key halves would
// overflow) is rejected with an error before any routing state is
// built; everything below it routes, with table memory bounded by
// touched links via the engine's paged tables.
func Route(topo Topology, pkts []*packet.Packet, opts Options) (Stats, error) {
	if topo.Nodes() > topology.MaxNodes {
		return Stats{}, fmt.Errorf("simnet: %s has %d nodes, exceeding the node-id limit (%d)",
			topo.Name(), topo.Nodes(), topology.MaxNodes)
	}
	router.Prepare("simnet", pkts, topo.Nodes(), opts)
	r := &sim{
		Core:   router.Core{Name: "simnet", Replies: opts.Replies, ReplyKey: replyKey},
		topo:   topo,
		record: opts.Record(),
		match:  onPhase2,
	}
	if ts, ok := topo.(TakenSensitive); ok && ts.TakenSensitive() {
		r.match = atEqualProgress
	}
	var maxKey uint64
	if !opts.Replies {
		if deg := maxDegree(topo); deg > 0 {
			r.slotKeys = true
			r.stride = uint64(deg)
			maxKey = uint64(topo.Nodes()) * r.stride
		}
	}
	inject := func(ctx *engine.Ctx) {
		for _, p := range pkts {
			p.Phase = 1
			p.Stage = 0 // hops taken toward the current target
			if opts.SkipPhase1 {
				p.Phase = 2
				p.Inter = p.Dst
			} else {
				p.Inter = p.Rand.Intn(topo.Nodes())
			}
			if key, delivered := r.advance(ctx, p, p.Src, 0); !delivered {
				ctx.Emit(key, p)
			}
			// src == intermediate == dst: the packet never moves.
		}
	}
	return router.Run(opts, maxKey, topo.Nodes(), r, inject, r.handle, r.combine), nil
}

// NodeOf implements router.Links: the node sending over a link.
func (r *sim) NodeOf(key uint64) int {
	if r.slotKeys {
		return int(key / r.stride)
	}
	return int(key >> 32)
}

// PeerOf implements router.Links: the node receiving over a link.
func (r *sim) PeerOf(key uint64) int {
	if r.slotKeys {
		return r.topo.Neighbor(int(key/r.stride), int(key%r.stride))
	}
	return int(key & 0xffffffff)
}

// advance returns the key of the next link a forward packet standing
// at node enters, or delivers it there during round.
func (r *sim) advance(ctx *engine.Ctx, p *packet.Packet, node, round int) (uint64, bool) {
	for {
		target := p.Inter
		if p.Phase == 2 {
			target = p.Dst
		}
		slot, done := r.topo.NextHop(node, target, p.Stage)
		if !done {
			if r.slotKeys {
				return uint64(node)*r.stride + uint64(slot), false
			}
			return edgeKey(node, r.topo.Neighbor(node, slot)), false
		}
		if p.Phase == 1 {
			p.Phase = 2
			p.Stage = 0
			continue
		}
		r.Deliver(ctx, p, node, round)
		return 0, true
	}
}

// handle advances one popped packet: it just crossed the link encoded
// in a.Key. Runs concurrently on distinct packets when Workers > 1.
func (r *sim) handle(ctx *engine.Ctx, a engine.Arrival, round int) {
	p := a.P
	p.Hops++
	if p.Kind.IsReply() {
		r.Retrace(ctx, p, round)
		return
	}
	var to int
	if r.slotKeys {
		to = r.topo.Neighbor(int(a.Key/r.stride), int(a.Key%r.stride))
	} else {
		to = int(a.Key & 0xffffffff)
	}
	p.Stage++
	if r.record {
		p.RecordPath(to)
	}
	if key, delivered := r.advance(ctx, p, to, round); !delivered {
		ctx.Emit(key, p)
	}
}

// combine merges an arriving phase-2 request into a queued one with
// the same kind, address and destination, if present. On memoryless
// topologies matching (node, dst) guarantees the remaining
// deterministic paths coincide; on taken-sensitive topologies
// (shuffle) equal per-phase progress is additionally required.
func (r *sim) combine(ctx *engine.Ctx, q queue.Discipline, a engine.Arrival) bool {
	if a.P.Phase != 2 {
		return false
	}
	return router.Merge(ctx, q, a.P, r.match)
}

// onPhase2 accepts a combining host on its deterministic final leg.
func onPhase2(host, _ *packet.Packet) bool { return host.Phase == 2 }

// atEqualProgress additionally requires the host to have taken as
// many phase-2 hops as the arriving packet.
func atEqualProgress(host, p *packet.Packet) bool {
	return host.Phase == 2 && host.Stage == p.Stage
}
