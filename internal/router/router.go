// Package router is the routing contract the two packet simulators
// share: internal/simnet (Algorithm 2.2 on any point-to-point graph)
// and internal/leveled (Algorithm 2.1 on a leveled network). It owns
// everything about a run that does not depend on how a packet takes
// its next forward hop:
//
//   - the run Options and the Stats they produce;
//   - injection-time validation and per-packet reset (Prepare);
//   - building and running the engine, with the MemStats copy-out
//     (Run);
//   - Theorem 2.6's request/reply mechanism (Core): delivery at the
//     module, reply spawning, the reverse retrace that fans combined
//     children out where their requests merged (Ranade's scheme, as
//     the paper adapts it), and completion bookkeeping;
//   - the combine merge itself (Merge).
//
// Each simulator keeps only what really differs: its forward hop,
// its link-key encodings and its combine-eligibility test.
package router

import (
	"context"
	"fmt"

	"pramemu/internal/engine"
	"pramemu/internal/packet"
	"pramemu/internal/prng"
	"pramemu/internal/queue"
)

// Options configures one routing run.
type Options struct {
	// Context, when non-nil, lets callers cancel or deadline a run;
	// the engine polls it cheaply (per round / every few thousand
	// events) and unwinds with an engine.Abort panic on expiry. A
	// never-canceled run is bit-identical to one without a context.
	Context context.Context
	// Seed drives every random choice; equal seeds give identical runs.
	Seed uint64
	// SkipPhase1 disables the randomizing first phase and routes every
	// packet directly along its deterministic path. This is the
	// ablation showing why Valiant's phase 1 is needed: adversarial
	// permutations then congest single links.
	SkipPhase1 bool
	// Replies makes every delivered read request retrace its recorded
	// path in reverse as a reply, per the direction bits of Theorem
	// 2.6. Rounds then counts until all replies are home.
	Replies bool
	// Combine merges same-kind requests for the same address and
	// module that meet in a queue on the deterministic leg (Theorem
	// 2.6's message combining). Implies path recording.
	Combine bool
	// RecordPaths forces path recording even without Replies/Combine
	// (used by path-property tests).
	RecordPaths bool
	// Workers is the round-engine worker count: 0 selects GOMAXPROCS,
	// 1 the sequential loop. Any value yields identical results.
	Workers int
	// HashedKeys forces the engine's hashed-map link state instead of
	// the dense-table fast path (reply-free runs declare a dense
	// forward key space to the engine). Results are bit-identical
	// either way; the knob exists for benchmarking the fallback and
	// for path-coverage tests.
	HashedKeys bool
	// PagedKeys forces the engine's paged dense tables even when the
	// declared key space fits flat ones (the engine pages
	// automatically beyond 2^24 keys). Results are bit-identical
	// either way; the knob exists for equivalence tests and
	// benchmarks.
	PagedKeys bool
	// MemBudget caps the engine's fixed link-table footprint in bytes;
	// over budget the run degrades to hashed state (pay-per-live-key)
	// instead of erroring. Zero means no budget. See
	// engine.Options.MemBudget.
	MemBudget int64
	// MemStats, when non-nil, receives the engine's resolved state and
	// table footprint after the run (ArenaBytes is left to the caller,
	// which owns the packet arena).
	MemStats *engine.MemStats
	// Lease, when non-nil, recycles the engine's table and scratch
	// allocations across same-shape runs (see engine.Options.Lease);
	// results are bit-identical with or without it.
	Lease *engine.Lease
	// Event, when non-nil, routes on the asynchronous discrete-event
	// engine instead of synchronous rounds: per-link latency from the
	// configured distribution, sender-side bandwidth caps and fault
	// injection (see engine.EventOptions). The simulator fills the
	// node-decoding hooks so the straggler and delay-matrix axes key
	// to topology nodes. Stats.Rounds then reports the last delivery
	// tick (the delivered time).
	Event *engine.EventOptions
}

// Record reports whether the run must record packet paths: replies
// retrace them and combining fans out along them.
func (o Options) Record() bool { return o.Replies || o.Combine || o.RecordPaths }

// Stats aggregates one routing run; the fields mirror the measures of
// §2.2.1 (routing time, queue size, delay) plus the emulation
// counters. The simulators report the engine's fold directly.
type Stats = engine.Stats

// Links decodes a simulator's link keys into the topology nodes the
// event engine's straggler and delay-matrix axes are keyed to.
type Links interface {
	// NodeOf returns the node that sends over the link.
	NodeOf(key uint64) int
	// PeerOf returns the node that receives over the link.
	PeerOf(key uint64) int
}

// Prepare validates pkts for a run over endpoints [0, nodes) and
// resets their per-run state: a PRNG stream split from the seed by
// packet ID, injection at round 0, and (when record) a path holding
// just the source. Duplicate IDs and endpoints out of range panic,
// naming the simulator.
func Prepare(name string, pkts []*packet.Packet, nodes int, o Options) {
	root := prng.New(o.Seed)
	record := o.Record()
	seen := make(map[int]bool, len(pkts))
	for _, p := range pkts {
		if seen[p.ID] {
			panic(fmt.Sprintf("%s: duplicate packet ID %d", name, p.ID))
		}
		seen[p.ID] = true
		if p.Src < 0 || p.Src >= nodes || p.Dst < 0 || p.Dst >= nodes {
			panic(fmt.Sprintf("%s: packet %d endpoints out of range", name, p.ID))
		}
		p.Rand = root.Split(uint64(p.ID))
		p.Injected = 0
		p.Arrived = -1
		if record {
			p.Path = append(p.Path[:0], int32(p.Src))
		}
	}
}

// Run builds the engine from o and runs one simulation on it. maxKey
// is the simulator's dense key-space declaration (zero when its keys
// are sparse); HashedKeys overrides it. nodes and links key the event
// engine's per-node axes when o.Event is set. combine is consulted
// only when o.Combine is set.
func Run(o Options, maxKey uint64, nodes int, links Links,
	inject func(*engine.Ctx), handle engine.Handler, combine engine.Combiner) Stats {
	if o.HashedKeys {
		maxKey = 0
	}
	eo := engine.Options{
		Context:    o.Context,
		Workers:    o.Workers,
		Seed:       o.Seed,
		MaxKey:     maxKey,
		MemBudget:  o.MemBudget,
		ForcePaged: o.PagedKeys,
		Lease:      o.Lease,
	}
	if o.Event != nil {
		ev := *o.Event
		ev.Nodes = nodes
		ev.NodeOf = links.NodeOf
		ev.PeerOf = links.PeerOf
		eo.Event = &ev
	}
	if !o.Combine {
		combine = nil
	}
	eng := engine.New(eo)
	st := eng.Run(inject, handle, combine)
	if o.MemStats != nil {
		*o.MemStats = eng.MemStats()
	}
	return st
}

// Core is the request/reply half of Theorem 2.6, shared by the
// simulators. Replies retrace the recorded request path: a reply
// standing at Path index p.Stage next crosses the reverse link from
// Path[p.Stage] to Path[p.Stage-1].
type Core struct {
	// Name prefixes panic messages ("simnet", "leveled").
	Name string
	// Replies mirrors Options.Replies.
	Replies bool
	// ReplyKey encodes the reverse link from node from (at Path index
	// i+1) to node to (at Path index i).
	ReplyKey func(i, from, to int) uint64
}

// Deliver completes a forward packet's journey at node during round.
// A delivered read spawns its reply when replies are on; everything
// else finishes here (writes are fire-and-forget: "back in case of a
// read instruction", §2.1).
func (c *Core) Deliver(ctx *engine.Ctx, p *packet.Packet, node, round int) {
	if node != p.Dst {
		panic(fmt.Sprintf("%s: packet %d delivered to %d, want %d", c.Name, p.ID, node, p.Dst))
	}
	st := ctx.Stats()
	p.Arrived = round
	if round > st.RequestRounds {
		st.RequestRounds = round
	}
	n := p.TotalCombined()
	st.DeliveredRequests += n
	ctx.AddLoad(node, n)
	if !c.Replies || p.Kind != packet.ReadRequest {
		c.noteFinished(ctx, p)
		return
	}
	makeReply(p)
	p.Stage = len(p.Path) - 1 // index into Path while retracing
	c.depart(ctx, p, round)
}

// Retrace advances a reply that just crossed a reverse link one Path
// index toward its requester, fanning out the children combined into
// it at the node it reached.
func (c *Core) Retrace(ctx *engine.Ctx, p *packet.Packet, round int) {
	p.Stage--
	idx := p.Stage
	for i, at := range p.CombinedAt {
		if at != idx {
			continue
		}
		child := p.Children[i]
		makeReply(child)
		if child.Kind == packet.ReadReply {
			child.Value = p.Value
		}
		// The merge node is the last entry of the child's own frozen
		// path; its index there can differ from idx when the two
		// requests reached the node over different-length routes.
		child.Stage = len(child.Path) - 1
		c.depart(ctx, child, round)
	}
	c.depart(ctx, p, round)
}

// depart sends a reply standing at Path index p.Stage over its next
// reverse link, or finishes it when it is home (index 0).
func (c *Core) depart(ctx *engine.Ctx, p *packet.Packet, round int) {
	if p.Stage == 0 {
		c.finishReply(ctx, p, round)
		return
	}
	i := p.Stage - 1
	ctx.Emit(c.ReplyKey(i, int(p.Path[i+1]), int(p.Path[i])), p)
}

// makeReply flips a delivered request into its reply kind in place.
func makeReply(p *packet.Packet) {
	if p.Kind == packet.WriteRequest {
		p.Kind = packet.WriteAck
	} else {
		p.Kind = packet.ReadReply
	}
}

func (c *Core) finishReply(ctx *engine.Ctx, p *packet.Packet, round int) {
	if int(p.Path[0]) != p.Src {
		panic(fmt.Sprintf("%s: reply %d retraced to %d, want %d", c.Name, p.ID, p.Path[0], p.Src))
	}
	p.Arrived = round
	ctx.Stats().DeliveredReplies++
	c.noteFinished(ctx, p)
}

// noteFinished folds a finished packet's cost into the aggregates.
func (c *Core) noteFinished(ctx *engine.Ctx, p *packet.Packet) {
	st := ctx.Stats()
	st.TotalDelay += int64(p.Delay)
	if s := p.Steps(); s > st.MaxPacketSteps {
		st.MaxPacketSteps = s
	}
	if p.Arrived > st.Rounds {
		st.Rounds = p.Arrived
	}
}

// Merge absorbs the arriving packet p into the first packet queued in
// q with the same kind, address and destination that also passes
// match (nil accepts any), and reports whether it did. Only requests
// combine: a transit packet carries no memory semantics, and a reply
// is on its way home. The caller has already checked that p stands on
// its deterministic leg, where such a host shares p's remaining route.
//
// The merge is recorded at the host's current path index, the trigger
// its reply counts down while retracing. The child's own path simply
// ends at the merge node; on a point-to-point network the two paths
// there may differ in length (phase-1 detours vary per packet).
func Merge(ctx *engine.Ctx, q queue.Discipline, p *packet.Packet, match func(host, p *packet.Packet) bool) bool {
	if !p.Kind.IsRequest() {
		return false
	}
	var host *packet.Packet
	q.Each(func(c *packet.Packet) bool {
		if c.Kind == p.Kind && c.Addr == p.Addr && c.Dst == p.Dst && (match == nil || match(c, p)) {
			host = c
			return false
		}
		return true
	})
	if host == nil {
		return false
	}
	host.Combine(p, len(host.Path)-1)
	ctx.Stats().Merges++
	return true
}
