// Package network models the machine interconnect. Two models from the
// paper are provided:
//
//   - Uniform: the default contention-free network with a fixed 54-pclock
//     node-to-node latency ("we assume a contention-free uniform access time
//     network", paper §4). Node-internal contention is modeled elsewhere.
//
//   - Mesh: the wormhole-routed 2-D mesh of §5.3, dimension-order (X then Y)
//     routed, two phases (routing + transfer) per hop, clocked at the
//     processor frequency, with configurable link width (64/32/16 bits).
//     Link contention is modeled by FIFO reservation of every directed link
//     along the route.
package network

import (
	"fmt"

	"ccsim/internal/sim"
)

// Net delivers messages between nodes. deliver runs at the destination when
// the message's last byte arrives.
type Net interface {
	// SendCall transmits a message of the given size in bytes from src to
	// dst and schedules deliver(arg) at arrival time, in the engine's
	// static-function event form: callers that pool arg transmit without
	// allocating a closure per message. src == dst is legal and delivers on
	// the next event with no latency (the local case is handled by the
	// node's bus, not the network).
	SendCall(src, dst, bytes int, deliver func(any), arg any)
	// Name identifies the network model for reports.
	Name() string
}

// Uniform is the contention-free fixed-latency network.
type Uniform struct {
	eng     *sim.Engine
	latency sim.Time
}

// NewUniform returns a uniform network with the given one-way latency.
func NewUniform(eng *sim.Engine, latency sim.Time) *Uniform {
	return &Uniform{eng: eng, latency: latency}
}

// SendCall implements Net.
func (u *Uniform) SendCall(src, dst, bytes int, deliver func(any), arg any) {
	if src == dst {
		u.eng.AfterCall(0, deliver, arg)
		return
	}
	u.eng.AfterCall(u.latency, deliver, arg)
}

// Name implements Net.
func (u *Uniform) Name() string { return fmt.Sprintf("uniform(%d)", u.latency) }

// Mesh is the wormhole-routed 2-D mesh. For a message of F flits crossing H
// hops, the header advances one hop per 2 cycles (routing phase + transfer
// phase) and the body streams behind it at one flit per cycle, so the
// uncontended latency is 2*H + F cycles. Each directed link is reserved
// FIFO for the duration the worm occupies it; a blocked header waits for
// the link to free, which is the coarse-grain equivalent of wormhole
// blocking.
type Mesh struct {
	eng           *sim.Engine
	width, height int
	bytesPerFlit  int

	// freeAt[l] is when directed link l is next free. Each router drives
	// four output links, one per direction, so link l is output port l%4
	// of node l/4 (see link).
	freeAt []sim.Time

	// routeBuf and links are transit's reusable scratch space: the route's
	// nodes and the links between them.
	routeBuf []int
	links    []int

	// Statistics.
	msgs      uint64
	flitsSent uint64
	waitTime  sim.Time
}

// NewMesh returns a width x height wormhole mesh with links of the given
// width in bits (must be a multiple of 8).
func NewMesh(eng *sim.Engine, width, height, linkBits int) *Mesh {
	if linkBits%8 != 0 || linkBits <= 0 {
		panic("network: link width must be a positive multiple of 8 bits")
	}
	return &Mesh{
		eng:          eng,
		width:        width,
		height:       height,
		bytesPerFlit: linkBits / 8,
		freeAt:       make([]sim.Time, 4*width*height),
	}
}

// Name implements Net.
func (m *Mesh) Name() string {
	return fmt.Sprintf("mesh%dx%d(%d-bit)", m.width, m.height, m.bytesPerFlit*8)
}

func (m *Mesh) xy(n int) (x, y int) { return n % m.width, n / m.width }
func (m *Mesh) node(x, y int) int   { return y*m.width + x }

// link returns the index in freeAt of the directed link between adjacent
// nodes from and to: from's output port toward to.
func (m *Mesh) link(from, to int) int {
	port := 0 // +x
	switch to - from {
	case -1:
		port = 1
	case m.width:
		port = 2
	case -m.width:
		port = 3
	}
	return 4*from + port
}

// Route returns the dimension-order (X then Y) route from src to dst as a
// node sequence including both endpoints.
func (m *Mesh) Route(src, dst int) []int { return m.routeAppend(nil, src, dst) }

// routeAppend appends the route to buf; transit passes a reused scratch
// buffer so the per-message path allocates nothing once warm.
func (m *Mesh) routeAppend(buf []int, src, dst int) []int {
	x, y := m.xy(src)
	dx, dy := m.xy(dst)
	route := append(buf, src)
	for x != dx {
		if x < dx {
			x++
		} else {
			x--
		}
		route = append(route, m.node(x, y))
	}
	for y != dy {
		if y < dy {
			y++
		} else {
			y--
		}
		route = append(route, m.node(x, y))
	}
	return route
}

// Flits returns the number of flits a message of the given size occupies.
func (m *Mesh) Flits(bytes int) int {
	f := (bytes + m.bytesPerFlit - 1) / m.bytesPerFlit
	if f < 1 {
		f = 1
	}
	return f
}

// SendCall implements Net.
func (m *Mesh) SendCall(src, dst, bytes int, deliver func(any), arg any) {
	if src == dst {
		m.eng.AfterCall(0, deliver, arg)
		return
	}
	m.eng.AtCall(m.transit(src, dst, bytes), deliver, arg)
}

// transit reserves every link of the worm's route, updates the contention
// statistics, and returns the absolute arrival time of the message's tail.
func (m *Mesh) transit(src, dst, bytes int) sim.Time {
	flits := sim.Time(m.Flits(bytes))
	m.routeBuf = m.routeAppend(m.routeBuf[:0], src, dst)
	m.links = m.links[:0]
	for i := 0; i+1 < len(m.routeBuf); i++ {
		m.links = append(m.links, m.link(m.routeBuf[i], m.routeBuf[i+1]))
	}
	t := m.eng.Now()
	for i, link := range m.links {
		start := t
		if f := m.freeAt[link]; f > start {
			m.waitTime += f - start
			start = f
			// Wormhole blocking: while the header waits here, the worm's
			// body keeps occupying every upstream link of its route — the
			// tree saturation that makes wormhole meshes degrade sharply
			// near their capacity.
			for _, up := range m.links[:i] {
				if hold := start + flits; m.freeAt[up] < hold {
					m.freeAt[up] = hold
				}
			}
		}
		// The worm occupies the link from header entry until the tail has
		// passed: routing + transfer phases plus the body flits.
		m.freeAt[link] = start + 2 + flits
		m.flitsSent += uint64(flits)
		// The header is through this hop after the two phases.
		t = start + 2
	}
	m.msgs++
	// The tail arrives one flit time per body flit after the header.
	return t + flits
}

// Msgs returns the number of messages sent.
func (m *Mesh) Msgs() uint64 { return m.msgs }

// WaitTime returns the cumulative header blocking time across all links, a
// direct measure of network contention.
func (m *Mesh) WaitTime() sim.Time { return m.waitTime }
