package simnet

import (
	"fmt"
	"testing"

	"pramemu/internal/packet"
	"pramemu/internal/prng"
)

// ring is a minimal bidirectional ring topology for black-box
// simulator tests: slot 0 = clockwise, slot 1 = counter-clockwise.
type ring struct{ n int }

func (r ring) Name() string        { return fmt.Sprintf("ring(%d)", r.n) }
func (r ring) Nodes() int          { return r.n }
func (r ring) Degree(node int) int { return 2 }
func (r ring) Diameter() int       { return r.n / 2 }
func (r ring) Neighbor(node, slot int) int {
	if slot == 0 {
		return (node + 1) % r.n
	}
	return (node - 1 + r.n) % r.n
}

// NextHop goes clockwise or counter-clockwise along the shorter arc;
// ties go clockwise, making paths unique.
func (r ring) NextHop(node, dst, taken int) (int, bool) {
	if node == dst {
		return 0, true
	}
	cw := (dst - node + r.n) % r.n
	if cw <= r.n-cw {
		return 0, false
	}
	return 1, false
}

func TestRingPermutation(t *testing.T) {
	topo := ring{16}
	perm := prng.New(3).Perm(16)
	pkts := make([]*packet.Packet, 16)
	for i, dst := range perm {
		pkts[i] = packet.New(i, i, dst, packet.Transit)
	}
	stats := mustRoute(t, topo, pkts, Options{Seed: 5})
	if stats.DeliveredRequests != 16 {
		t.Fatalf("delivered %d", stats.DeliveredRequests)
	}
	for _, p := range pkts {
		if p.Arrived < 0 {
			t.Fatalf("packet %d lost", p.ID)
		}
	}
}

func TestRingShortestPathsWhenDirect(t *testing.T) {
	topo := ring{10}
	// Single packet, no contention, SkipPhase1: must take exactly the
	// ring distance.
	for dst := 0; dst < 10; dst++ {
		p := packet.New(0, 0, dst, packet.Transit)
		mustRoute(t, topo, []*packet.Packet{p}, Options{Seed: 1, SkipPhase1: true})
		want := dst
		if dst > 5 {
			want = 10 - dst
		}
		if p.Hops != want {
			t.Fatalf("0->%d took %d hops, want %d", dst, p.Hops, want)
		}
	}
}

func TestZeroHopPacketWithReplies(t *testing.T) {
	topo := ring{8}
	// src == dst and SkipPhase1: request and reply complete at round 0.
	p := packet.New(0, 3, 3, packet.ReadRequest)
	stats := mustRoute(t, topo, []*packet.Packet{p}, Options{Seed: 1, SkipPhase1: true, Replies: true})
	if stats.DeliveredRequests != 1 || stats.DeliveredReplies != 1 {
		t.Fatalf("stats %+v", stats)
	}
	if stats.Rounds != 0 {
		t.Fatalf("zero-hop packet took %d rounds", stats.Rounds)
	}
	if p.Kind != packet.ReadReply {
		t.Fatalf("kind %v", p.Kind)
	}
}

func TestDeterminism(t *testing.T) {
	topo := ring{32}
	perm := prng.New(9).Perm(32)
	run := func() Stats {
		pkts := make([]*packet.Packet, 32)
		for i, dst := range perm {
			pkts[i] = packet.New(i, i, dst, packet.ReadRequest)
		}
		return mustRoute(t, topo, pkts, Options{Seed: 7, Replies: true})
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

func TestRepliesRetraceExactPath(t *testing.T) {
	topo := ring{12}
	pkts := []*packet.Packet{packet.New(0, 1, 7, packet.ReadRequest)}
	mustRoute(t, topo, pkts, Options{Seed: 2, Replies: true, RecordPaths: true})
	p := pkts[0]
	if int(p.Path[0]) != 1 {
		t.Fatalf("path start %d", p.Path[0])
	}
	// Reply finished back at source.
	if p.Arrived < 0 || p.Kind != packet.ReadReply {
		t.Fatalf("reply not home: %+v", p)
	}
}

func TestSharedLinkSerializes(t *testing.T) {
	topo := ring{8}
	// Three packets all must cross link 0->1 (SkipPhase1, dsts 1,2,3
	// from src 0 go clockwise). One link crossing per round.
	pkts := []*packet.Packet{
		packet.New(0, 0, 1, packet.Transit),
		packet.New(1, 0, 2, packet.Transit),
		packet.New(2, 0, 3, packet.Transit),
	}
	stats := mustRoute(t, topo, pkts, Options{Seed: 1, SkipPhase1: true})
	// First crossing at round 1; third packet crosses at round 3 and
	// then needs 2 more hops: total >= 5.
	if stats.Rounds < 5 {
		t.Fatalf("three packets over one link finished in %d rounds", stats.Rounds)
	}
	var total int64
	for _, p := range pkts {
		total += int64(p.Delay)
	}
	if total != stats.TotalDelay {
		t.Fatalf("TotalDelay %d != sum of packet delays %d", stats.TotalDelay, total)
	}
	if stats.TotalDelay == 0 {
		t.Fatal("shared-link contention produced no queueing delay")
	}
}

func TestCombiningOnRing(t *testing.T) {
	topo := ring{16}
	// Four packets at each of two nodes, all reading the same address
	// at node 0: a steady ring drains at link rate, so collisions (and
	// hence merges) happen where requests are co-located.
	var pkts []*packet.Packet
	id := 0
	for _, src := range []int{4, 12} {
		for j := 0; j < 4; j++ {
			p := packet.New(id, src, 0, packet.ReadRequest)
			p.Addr = 99
			pkts = append(pkts, p)
			id++
		}
	}
	stats := mustRoute(t, topo, pkts, Options{Seed: 3, SkipPhase1: true, Replies: true, Combine: true})
	if stats.Merges == 0 {
		t.Fatal("no merges on co-located same-address reads")
	}
	if stats.DeliveredReplies != len(pkts) {
		t.Fatalf("replies %d/%d", stats.DeliveredReplies, len(pkts))
	}
	if stats.DeliveredRequests != len(pkts) {
		t.Fatalf("requests %d/%d", stats.DeliveredRequests, len(pkts))
	}
}

// TestCombiningRepliesWithUnequalPaths is the regression test for the
// merge-index bug the emulation axis exposed: with phase 1 enabled,
// two same-address requests meeting in a queue have generally taken
// different-length routes there (each detoured via its own random
// intermediate node), so the merge must be recorded at the host's
// path index while the child's own path simply ends at the merge
// node. Before the fix a combined child's reply could be dropped
// (host path shorter than the recorded index) or released at the
// wrong node; every read must get its reply, across many seeds.
func TestCombiningRepliesWithUnequalPaths(t *testing.T) {
	topo := ring{16}
	merges := 0
	for seed := uint64(0); seed < 30; seed++ {
		pkts := make([]*packet.Packet, 16)
		for i := range pkts {
			pkts[i] = packet.New(i, i, 5, packet.ReadRequest)
			pkts[i].Addr = 7
		}
		stats := mustRoute(t, topo, pkts, Options{Seed: seed, Replies: true, Combine: true})
		if stats.DeliveredReplies != len(pkts) {
			t.Fatalf("seed %d: replies %d/%d", seed, stats.DeliveredReplies, len(pkts))
		}
		for _, p := range pkts {
			if p.Arrived < 0 {
				t.Fatalf("seed %d: packet %d never completed", seed, p.ID)
			}
		}
		merges += stats.Merges
	}
	// Phase-1 scattering means individual seeds may see no queue
	// meetings; across 30 seeds the all-same-address reads must merge.
	if merges == 0 {
		t.Fatal("no merges across any seed")
	}
}

func TestMaxModuleLoadCountsConstituents(t *testing.T) {
	topo := ring{8}
	pkts := make([]*packet.Packet, 8)
	for i := range pkts {
		pkts[i] = packet.New(i, i, 4, packet.ReadRequest)
		pkts[i].Addr = 1
	}
	stats := mustRoute(t, topo, pkts, Options{Seed: 2, SkipPhase1: true, Replies: true, Combine: true})
	if stats.MaxModuleLoad != 8 {
		t.Fatalf("module load %d, want 8", stats.MaxModuleLoad)
	}
}

// mustRoute is the test-side wrapper around Route for topologies that
// are known to fit the key space.
func mustRoute(t *testing.T, topo Topology, pkts []*packet.Packet, opts Options) Stats {
	t.Helper()
	s, err := Route(topo, pkts, opts)
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	return s
}

// hugeTopo is a fake topology claiming more nodes than the node-id
// limit (topology.MaxNodes, 2^31 — where recorded int32 path entries
// and 32-bit packed link-key halves overflow); Route must reject it
// with an error before building any routing state.
type hugeTopo struct{ ring }

func (hugeTopo) Nodes() int { return 1<<31 + 1 }

func TestOversizedTopologyReturnsError(t *testing.T) {
	_, err := Route(hugeTopo{ring{4}}, nil, Options{Seed: 1})
	if err == nil {
		t.Fatal("Route accepted a topology beyond the node-id limit")
	}
}
