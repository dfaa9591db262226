package network

import (
	"testing"
	"testing/quick"

	"ccsim/internal/sim"
)

func TestUniformLatency(t *testing.T) {
	eng := sim.NewEngine()
	n := NewUniform(eng, 54)
	var at sim.Time = -1
	n.SendCall(0, 5, 40, func(any) { at = eng.Now() }, nil)
	eng.Run()
	if at != 54 {
		t.Fatalf("delivered at %d, want 54", at)
	}
}

func TestUniformLocalIsImmediate(t *testing.T) {
	eng := sim.NewEngine()
	n := NewUniform(eng, 54)
	var at sim.Time = -1
	n.SendCall(3, 3, 8, func(any) { at = eng.Now() }, nil)
	eng.Run()
	if at != 0 {
		t.Fatalf("local delivery at %d, want 0", at)
	}
}

func TestUniformNoContention(t *testing.T) {
	eng := sim.NewEngine()
	n := NewUniform(eng, 54)
	delivered := 0
	for i := 0; i < 100; i++ {
		n.SendCall(0, 1, 40, func(any) {
			if eng.Now() != 54 {
				t.Errorf("message delivered at %d, want 54", eng.Now())
			}
			delivered++
		}, nil)
	}
	eng.Run()
	if delivered != 100 {
		t.Fatalf("delivered %d, want 100", delivered)
	}
}

func TestMeshRouteDimensionOrder(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 4, 4, 16)
	// Node 1 = (1,0), node 14 = (2,3): route X first 1->2, then Y down.
	route := m.Route(1, 14)
	want := []int{1, 2, 6, 10, 14}
	if len(route) != len(want) {
		t.Fatalf("route %v, want %v", route, want)
	}
	for i := range want {
		if route[i] != want[i] {
			t.Fatalf("route %v, want %v", route, want)
		}
	}
}

func TestMeshRouteSelf(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 4, 4, 16)
	if r := m.Route(5, 5); len(r) != 1 || r[0] != 5 {
		t.Fatalf("self-route = %v", r)
	}
}

func TestMeshFlits(t *testing.T) {
	eng := sim.NewEngine()
	cases := []struct{ bits, bytes, want int }{
		{64, 40, 5}, {32, 40, 10}, {16, 40, 20},
		{64, 8, 1}, {16, 8, 4}, {64, 0, 1}, {64, 1, 1},
	}
	for _, c := range cases {
		m := NewMesh(eng, 4, 4, c.bits)
		if got := m.Flits(c.bytes); got != c.want {
			t.Errorf("Flits(%dB @ %d-bit) = %d, want %d", c.bytes, c.bits, got, c.want)
		}
	}
}

func TestMeshUncontendedLatency(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 4, 4, 64)
	// 0 -> 3: 3 hops. 40 bytes @ 64-bit = 5 flits. Latency = 2*3 + 5 = 11.
	var at sim.Time = -1
	m.SendCall(0, 3, 40, func(any) { at = eng.Now() }, nil)
	eng.Run()
	if at != 11 {
		t.Fatalf("delivered at %d, want 11", at)
	}
}

func TestMeshNarrowLinksAreSlower(t *testing.T) {
	lat := func(bits int) sim.Time {
		eng := sim.NewEngine()
		m := NewMesh(eng, 4, 4, bits)
		var at sim.Time
		m.SendCall(0, 15, 40, func(any) { at = eng.Now() }, nil)
		eng.Run()
		return at
	}
	l64, l32, l16 := lat(64), lat(32), lat(16)
	if !(l64 < l32 && l32 < l16) {
		t.Fatalf("latencies not ordered: 64=%d 32=%d 16=%d", l64, l32, l16)
	}
}

func TestMeshLinkContention(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 4, 4, 16)
	// Two messages over the same single link 0->1 at t=0. 40B @ 16-bit = 20
	// flits. First arrives at 2+20=22; second waits for the link (free at
	// 22) and arrives at 22+2+20=44.
	var first, second sim.Time
	m.SendCall(0, 1, 40, func(any) { first = eng.Now() }, nil)
	m.SendCall(0, 1, 40, func(any) { second = eng.Now() }, nil)
	eng.Run()
	if first != 22 || second != 44 {
		t.Fatalf("arrivals %d, %d; want 22, 44", first, second)
	}
	if m.WaitTime() == 0 {
		t.Fatal("contention not recorded in WaitTime")
	}
}

func TestMeshDisjointRoutesDoNotInterfere(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 4, 4, 16)
	var a, b sim.Time
	m.SendCall(0, 1, 40, func(any) { a = eng.Now() }, nil)
	m.SendCall(4, 5, 40, func(any) { b = eng.Now() }, nil)
	eng.Run()
	if a != 22 || b != 22 {
		t.Fatalf("disjoint messages at %d, %d; want both 22", a, b)
	}
	if m.WaitTime() != 0 {
		t.Fatal("disjoint routes recorded contention")
	}
}

func TestMeshBadLinkWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-multiple-of-8 link width did not panic")
		}
	}()
	NewMesh(sim.NewEngine(), 4, 4, 12)
}

// Property: every route is a valid path of adjacent mesh nodes from src to
// dst, with length <= width+height hops.
func TestMeshRouteValidityProperty(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 4, 4, 32)
	f := func(s, d uint8) bool {
		src, dst := int(s%16), int(d%16)
		r := m.Route(src, dst)
		if r[0] != src || r[len(r)-1] != dst {
			return false
		}
		if len(r) > 1+3+3 {
			return false
		}
		for i := 0; i+1 < len(r); i++ {
			ax, ay := r[i]%4, r[i]/4
			bx, by := r[i+1]%4, r[i+1]/4
			manhattan := abs(ax-bx) + abs(ay-by)
			if manhattan != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: delivery time is never earlier than the uncontended bound
// 2*hops + flits.
func TestMeshLatencyLowerBoundProperty(t *testing.T) {
	f := func(pairs []struct{ S, D uint8 }) bool {
		eng := sim.NewEngine()
		m := NewMesh(eng, 4, 4, 16)
		ok := true
		for _, p := range pairs {
			src, dst := int(p.S%16), int(p.D%16)
			if src == dst {
				continue
			}
			hops := len(m.Route(src, dst)) - 1
			bound := sim.Time(2*hops + m.Flits(40))
			m.SendCall(src, dst, 40, func(any) {
				if eng.Now() < bound {
					ok = false
				}
			}, nil)
		}
		eng.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
