package main

import (
	"encoding/binary"
	"fmt"
	"runtime/debug"
	"syscall"
	"time"
)

// The host-speed probe. On a small shared host the speed of the same code
// drifts by 10–20% over minutes as other tenants load the machine, and a
// benchmark run lasts about as long as one such phase, so the pass times of
// back-to-back runs differ by more than any useful bound. The probe times a
// fixed piece of simulator-like work before every pass: random reads and
// writes over 64 MiB, the cache-missing pattern of per-block protocol
// state, and a stream of small heap allocations. Its
// first quartile over a run's passes is that run's host speed, and the time
// metrics are scaled by probeNominal over it (see hostSpeed). No change to
// the simulator can change the probe's work: the collector is paused while
// it runs, so how much memory the process holds does not matter, and the
// 64 MiB live outside the Go heap, so they leave the collector's pacing of
// the simulations alone.

const (
	probeBytes = 64 << 20
	probeIters = 200_000
	// probeNominal is the probe's first-quartile time on the 2-core VM the
	// benchmark was defined on; time metrics read as seconds on that host at
	// that speed. Changing it rescales every time metric.
	probeNominal = 0.020
)

type hostProbe struct {
	mem  []byte
	sink uint64
}

type probeObj struct {
	key  uint64
	next *probeObj
	_    [2]uint64
}

func newHostProbe() (*hostProbe, error) {
	mem, err := syscall.Mmap(-1, 0, probeBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("host probe: %w", err)
	}
	for i := 0; i < probeBytes; i += 8 {
		binary.LittleEndian.PutUint64(mem[i:], uint64(i)*0x9E3779B97F4A7C15)
	}
	return &hostProbe{mem: mem}, nil
}

func (p *hostProbe) close() error { return syscall.Munmap(p.mem) }

// run times one probe, in seconds.
func (p *hostProbe) run() float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	t := time.Now()
	sum := probeWork(p.mem)
	d := time.Since(t).Seconds()
	p.sink += sum
	return d
}

// probeWork reads random 16-byte pairs in the first half of mem, writes
// random words in the second, and allocates one small object per step.
func probeWork(mem []byte) uint64 {
	half := len(mem) / 2 &^ 15
	words := uint64(half / 8)
	var ring [256]*probeObj
	x, sum := uint64(88172645463325252), uint64(0)
	for i := 0; i < probeIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		r := (x * 0x9E3779B97F4A7C15 >> 32) % words * 8
		sum += binary.LittleEndian.Uint64(mem[r:]) ^ binary.LittleEndian.Uint64(mem[r^8:])
		binary.LittleEndian.PutUint64(mem[uint64(half)+x%words*8:], x)
		ring[i&255] = &probeObj{key: x, next: ring[(i+1)&255]}
	}
	return sum + ring[0].key
}
