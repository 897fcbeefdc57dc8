package leveled

import (
	"pramemu/internal/engine"
	"pramemu/internal/packet"
	"pramemu/internal/queue"
	"pramemu/internal/router"
)

// Options configures a routing run (the contract shared with
// internal/simnet). Phase 1 is the randomizing first traversal of
// the network and phase 2 the unique-path second one, so combining
// happens during the second traversal.
type Options = router.Options

// Stats reports the outcome of one routing run. MaxModuleLoad is the
// largest number of (un-combined) requests delivered to a single
// last-column node.
type Stats = router.Stats

const reverseBit = uint64(1) << 63

// keySpaceOverflows reports whether the product a*b*c wraps uint64 or
// reaches 2^63, where it would collide with the reverse-bit namespace.
func keySpaceOverflows(a, b, c uint64) bool {
	if a == 0 || b == 0 || c == 0 {
		return false
	}
	if a > (reverseBit-1)/b {
		return true
	}
	return a*b > (reverseBit-1)/c
}

// forwardKey encodes the directed forward link (logical column, node,
// out-slot) densely as (level*width + node)*degree + slot, so the
// whole forward key space is [0, (logical-1)*width*degree) and the
// engine can back it with slice-indexed tables. The encoding is
// injective, which is all results depend on: two arrivals share a
// queue exactly when they share a key.
func (r *sim) forwardKey(level, node, slot int) uint64 {
	return (uint64(level)*r.width+uint64(node))*r.degree + uint64(slot)
}

// reverseKey encodes a reply link by its endpoint node pair, packed
// as the width-based product (level*width + from)*width + to under the
// reverse bit. Reply traffic is sparse in this space and exists only
// when Options.Replies is set; the reverse bit keeps it disjoint from
// the forward keys. The product keeps working up to topology-scale
// widths (2^31 nodes).
func (r *sim) reverseKey(level, from, to int) uint64 {
	return reverseBit | ((uint64(level)*r.width+uint64(from))*r.width + uint64(to))
}

// sim holds the immutable per-run configuration; all mutable state
// lives in the engine's shard contexts.
type sim struct {
	router.Core
	spec       Spec
	skipPhase1 bool
	levels     int // ℓ
	logical    int // logical columns: 2ℓ-1 (or ℓ when SkipPhase1)
	record     bool
	width      uint64 // spec.Width(), the forward-key node stride
	degree     uint64 // spec.Degree(), the forward-key slot stride
}

// Route routes pkts through the leveled network described by spec
// using the universal two-phase randomized algorithm (Algorithm 2.1).
// Each packet travels from its Src in the first column to its Dst in
// the last column. Packets must have unique IDs. Route mutates the
// packets (hop/delay/path bookkeeping) and returns aggregate Stats.
func Route(spec Spec, pkts []*packet.Packet, opts Options) Stats {
	if spec.Levels() < 2 {
		panic("leveled: network needs at least 2 levels")
	}
	// Guard the product key encodings against 64-bit wrap: forward keys
	// reach (logical-1)*width*degree and reverse keys logical*width^2,
	// and either crossing 2^63 would collide with the reverse-bit
	// namespace.
	logical := uint64(2*spec.Levels() - 1)
	w, d := uint64(spec.Width()), uint64(spec.Degree())
	if keySpaceOverflows(logical, w, w) || keySpaceOverflows(logical, w, d) {
		panic("leveled: width x degree key space overflows 63 bits")
	}
	router.Prepare("leveled", pkts, spec.Width(), opts)
	r := &sim{
		spec:       spec,
		skipPhase1: opts.SkipPhase1,
		levels:     spec.Levels(),
		logical:    2*spec.Levels() - 1,
		record:     opts.Record(),
		width:      w,
		degree:     d,
	}
	r.Core = router.Core{Name: "leveled", Replies: opts.Replies, ReplyKey: r.reverseKey}
	if opts.SkipPhase1 {
		r.logical = spec.Levels()
	}
	// Reply-free runs declare the dense forward key space so the
	// engine swaps its hash maps for slice-indexed tables; replies
	// live under reverseBit, outside any declarable range.
	var maxKey uint64
	if !opts.Replies {
		maxKey = uint64(r.logical-1) * r.width * r.degree
	}
	inject := func(ctx *engine.Ctx) {
		for _, p := range pkts {
			slot := r.chooseSlot(p, 0, p.Src)
			ctx.Emit(r.forwardKey(0, p.Src, slot), p)
		}
	}
	return router.Run(opts, maxKey, spec.Width(), r, inject, r.handle, r.combine)
}

// NodeOf implements router.Links: the width-space node sending over a
// link (a straggler node is slow in every column).
func (r *sim) NodeOf(key uint64) int {
	if key&reverseBit != 0 {
		return int((key &^ reverseBit) / r.width % r.width)
	}
	return int((key / r.degree) % r.width)
}

// PeerOf implements router.Links: the width-space node receiving over
// a link.
func (r *sim) PeerOf(key uint64) int {
	if key&reverseBit != 0 {
		return int((key &^ reverseBit) % r.width)
	}
	cell := key / r.degree
	return r.spec.Out(r.physLevel(int(cell/r.width)), int(cell%r.width), int(key%r.degree))
}

// chooseSlot picks the outgoing link slot for a packet sitting at the
// given logical column: a random link during the first traversal, the
// unique-path link during the second.
func (r *sim) chooseSlot(p *packet.Packet, logicalCol, node int) int {
	physical := logicalCol
	random := true
	if r.skipPhase1 {
		random = false
	} else if logicalCol >= r.levels-1 {
		physical = logicalCol - (r.levels - 1)
		random = false
	}
	if random {
		return p.Rand.Intn(r.spec.OutDegree(physical, node))
	}
	return r.spec.NextHop(physical, node, p.Dst)
}

// physLevel maps a logical edge level to the Spec level it uses.
func (r *sim) physLevel(logicalEdge int) int {
	if r.skipPhase1 || logicalEdge < r.levels-1 {
		return logicalEdge
	}
	return logicalEdge - (r.levels - 1)
}

// handle advances one popped packet a column. Runs concurrently on
// distinct packets when Workers > 1.
func (r *sim) handle(ctx *engine.Ctx, a engine.Arrival, round int) {
	p := a.P
	p.Hops++
	if a.Key&reverseBit != 0 {
		r.Retrace(ctx, p, round)
		return
	}
	cell := a.Key / r.degree
	slot := int(a.Key % r.degree)
	level := int(cell / r.width)
	fromNode := int(cell % r.width)
	node := r.spec.Out(r.physLevel(level), fromNode, slot)
	col := level + 1
	if r.record {
		p.RecordPath(node)
	}
	if col == r.logical-1 {
		r.Deliver(ctx, p, node, round)
		return
	}
	next := r.chooseSlot(p, col, node)
	ctx.Emit(r.forwardKey(col, node, next), p)
}

// combine merges an arriving request into a queued one with the same
// kind, address and module, if one exists on this link of the second
// (unique-path) traversal, where two such packets are guaranteed to
// share their remaining route. Returns true if merged.
func (r *sim) combine(ctx *engine.Ctx, q queue.Discipline, a engine.Arrival) bool {
	if a.Key&reverseBit != 0 {
		return false
	}
	if level := int(a.Key / (r.width * r.degree)); !r.skipPhase1 && level < r.levels-1 {
		return false
	}
	return router.Merge(ctx, q, a.P, nil)
}
