package router_test

import (
	"fmt"
	"strings"
	"testing"

	"pramemu/internal/leveled"
	"pramemu/internal/packet"
	"pramemu/internal/router"
	"pramemu/internal/simnet"
	"pramemu/internal/workload"
)

// ring is a minimal bidirectional ring for the point-to-point
// simulator: slot 0 = clockwise, slot 1 = counter-clockwise, ties go
// clockwise so paths are unique.
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

func (r ring) NextHop(node, dst, taken int) (int, bool) {
	if node == dst {
		return 0, true
	}
	if cw := (dst - node + r.n) % r.n; cw <= r.n-cw {
		return 0, false
	}
	return 1, false
}

// sim is one simulator under the shared routing contract.
type sim struct {
	name  string
	nodes int
	route func(pkts []*packet.Packet, o router.Options) router.Stats
}

// sims returns both simulators: simnet on a 16-node ring, leveled on
// the 64-row butterfly (k=6).
func sims() []sim {
	g := ring{16}
	spec := leveled.NewButterfly(6)
	return []sim{
		{"simnet", g.Nodes(), func(pkts []*packet.Packet, o router.Options) router.Stats {
			st, err := simnet.Route(g, pkts, o)
			if err != nil {
				panic(err)
			}
			return st
		}},
		{"leveled", spec.Width(), func(pkts []*packet.Packet, o router.Options) router.Stats {
			return leveled.Route(spec, pkts, o)
		}},
	}
}

// reads returns per reads to module dst from every node, all for one
// shared address.
func reads(nodes, per, dst int) []*packet.Packet {
	pkts := make([]*packet.Packet, 0, nodes*per)
	for src := 0; src < nodes; src++ {
		for j := 0; j < per; j++ {
			p := packet.New(len(pkts), src, dst, packet.ReadRequest)
			p.Addr = 7
			pkts = append(pkts, p)
		}
	}
	return pkts
}

// wantPanic runs f and fails unless it panics with a message holding
// both the simulator's name and want.
func wantPanic(t *testing.T, name, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		msg := fmt.Sprint(recover())
		if !strings.HasPrefix(msg, name+": ") || !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want %s: ...%s", msg, name, want)
		}
	}()
	f()
}

// TestContract runs the routing contract the router core defines
// against both simulators.
func TestContract(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, s sim)
	}{
		{"duplicate-ids", func(t *testing.T, s sim) {
			wantPanic(t, s.name, "duplicate packet ID 3", func() {
				s.route([]*packet.Packet{
					packet.New(3, 0, 1, packet.Transit),
					packet.New(3, 1, 2, packet.Transit),
				}, router.Options{})
			})
		}},
		{"endpoints-out-of-range", func(t *testing.T, s sim) {
			for _, p := range []*packet.Packet{
				packet.New(0, -1, 0, packet.Transit),
				packet.New(0, 0, s.nodes, packet.Transit),
			} {
				wantPanic(t, s.name, "packet 0 endpoints out of range", func() {
					s.route([]*packet.Packet{p}, router.Options{})
				})
			}
		}},
		{"zero-hop-with-replies", func(t *testing.T, s sim) {
			// src == dst on the direct leg: on a point-to-point network
			// the request never moves and both halves finish at round
			// 0; a leveled network still crosses every column. Either
			// way the reply takes exactly as many rounds as the request.
			p := packet.New(0, 3, 3, packet.ReadRequest)
			st := s.route([]*packet.Packet{p}, router.Options{Seed: 1, SkipPhase1: true, Replies: true})
			hops := len(p.Path) - 1
			if s.name == "simnet" && hops != 0 {
				t.Fatalf("src == dst took %d hops", hops)
			}
			if st.DeliveredRequests != 1 || st.DeliveredReplies != 1 || st.Rounds != 2*hops {
				t.Fatalf("stats %+v, want one request and reply in %d rounds", st, 2*hops)
			}
			if p.Kind != packet.ReadReply || p.Arrived != st.Rounds {
				t.Fatalf("kind %v arrived %d, want ReadReply at %d", p.Kind, p.Arrived, st.Rounds)
			}
		}},
		{"replies-retrace-exact-path", func(t *testing.T, s sim) {
			// A lone read never waits, so its reply is home after
			// exactly one reverse hop per recorded forward hop.
			for seed := uint64(0); seed < 8; seed++ {
				p := packet.New(0, 1, 7, packet.ReadRequest)
				st := s.route([]*packet.Packet{p}, router.Options{Seed: seed, Replies: true})
				hops := len(p.Path) - 1
				if int(p.Path[0]) != p.Src || int(p.Path[hops]) != p.Dst {
					t.Fatalf("seed %d: path %v does not run %d -> %d", seed, p.Path, p.Src, p.Dst)
				}
				if p.Kind != packet.ReadReply || p.Hops != 2*hops || p.Delay != 0 {
					t.Fatalf("seed %d: kind %v hops %d delay %d, want ReadReply after %d hops",
						seed, p.Kind, p.Hops, p.Delay, 2*hops)
				}
				if p.Arrived != 2*hops || st.Rounds != 2*hops || st.RequestRounds != hops {
					t.Fatalf("seed %d: arrived %d, stats %+v, want request at %d and reply at %d",
						seed, p.Arrived, st, hops, 2*hops)
				}
			}
		}},
		{"max-module-load-counts-constituents", func(t *testing.T, s sim) {
			// Two reads per node share their first link, so the second
			// merges into the first at injection (except at the module
			// itself on a point-to-point network, where they never
			// queue); the module still counts every constituent.
			pkts := reads(s.nodes, 2, 4)
			st := s.route(pkts, router.Options{Seed: 2, SkipPhase1: true, Replies: true, Combine: true})
			n := len(pkts)
			if st.Merges < s.nodes-1 {
				t.Fatalf("merges %d, want at least %d", st.Merges, s.nodes-1)
			}
			if st.MaxModuleLoad != n || st.DeliveredRequests != n || st.DeliveredReplies != n {
				t.Fatalf("stats %+v, want load, requests and replies all %d", st, n)
			}
		}},
		{"combined-replies-on-unequal-paths", func(t *testing.T, s sim) {
			// With phase 1 on, same-address requests reach their meeting
			// point over routes of different length on a point-to-point
			// network; every read must still get its reply.
			merges := 0
			for seed := uint64(0); seed < 30; seed++ {
				pkts := reads(s.nodes, 1, 5)
				st := s.route(pkts, router.Options{Seed: seed, Replies: true, Combine: true})
				if st.DeliveredReplies != len(pkts) {
					t.Fatalf("seed %d: replies %d/%d", seed, st.DeliveredReplies, len(pkts))
				}
				for _, p := range pkts {
					if p.Arrived < 0 || p.Kind != packet.ReadReply {
						t.Fatalf("seed %d: packet %d never completed", seed, p.ID)
					}
				}
				merges += st.Merges
			}
			if merges == 0 {
				t.Fatal("no merges across any seed")
			}
		}},
		{"only-requests-combine", func(t *testing.T, s sim) {
			// A transit relation carries no memory semantics: its
			// packets share address 0 but must never merge. The same
			// relation as reads does merge, so the zero is not vacuous.
			for _, kind := range []packet.Kind{packet.Transit, packet.ReadRequest} {
				pkts := workload.Relation(s.nodes, 4, kind, 7)
				st := s.route(pkts, router.Options{Seed: 3, Combine: true})
				if st.DeliveredRequests != len(pkts) {
					t.Fatalf("%v: delivered %d/%d", kind, st.DeliveredRequests, len(pkts))
				}
				if merged := st.Merges > 0; merged != kind.IsRequest() {
					t.Fatalf("%v relation made %d merges", kind, st.Merges)
				}
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, s := range sims() {
				t.Run(s.name, func(t *testing.T) { c.run(t, s) })
			}
		})
	}
}
