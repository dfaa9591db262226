package syncprim

import (
	"testing"
	"testing/quick"
)

func TestLockFreeAcquire(t *testing.T) {
	var l Lock
	if !l.Acquire(3) {
		t.Fatal("acquire of free lock not granted")
	}
	if !l.Held() || l.Holder() != 3 {
		t.Fatal("lock state wrong after grant")
	}
}

func TestLockQueuesFIFO(t *testing.T) {
	var l Lock
	l.Acquire(0)
	for _, p := range []int{1, 2, 3} {
		if l.Acquire(p) {
			t.Fatalf("acquire by %d granted while held", p)
		}
	}
	if l.QueueLen() != 3 {
		t.Fatalf("queue length %d, want 3", l.QueueLen())
	}
	order := []int{}
	holder := 0
	for l.QueueLen() > 0 || l.Held() {
		next, ok := l.Release(holder)
		if !ok {
			break
		}
		order = append(order, next)
		holder = next
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order %v, want %v", order, want)
		}
	}
	if l.Held() {
		t.Fatal("lock still held after final release")
	}
}

func TestLockReleaseWithoutWaiters(t *testing.T) {
	var l Lock
	l.Acquire(5)
	if _, ok := l.Release(5); ok {
		t.Fatal("release with empty queue reported a next holder")
	}
	if l.Held() {
		t.Fatal("lock held after release")
	}
	if !l.Acquire(6) {
		t.Fatal("reacquire after release not granted")
	}
}

func TestLockBadReleasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("release by non-holder did not panic")
		}
	}()
	var l Lock
	l.Acquire(1)
	l.Release(2)
}

func TestLockReleaseUnheldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("release of unheld lock did not panic")
		}
	}()
	var l Lock
	l.Release(0)
}

// Property: mutual exclusion and FIFO grant order hold for any acquire
// pattern.
func TestLockFIFOProperty(t *testing.T) {
	f := func(procs []uint8) bool {
		var l Lock
		var expect []int
		holder := -1
		for _, pb := range procs {
			p := int(pb % 16)
			if l.Acquire(p) {
				if holder != -1 {
					return false // granted while held
				}
				holder = p
			} else {
				expect = append(expect, p)
			}
		}
		for i := 0; holder != -1; i++ {
			next, ok := l.Release(holder)
			if !ok {
				holder = -1
				break
			}
			if i >= len(expect) || next != expect[i] {
				return false
			}
			holder = next
		}
		return l.QueueLen() == 0 && !l.Held()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierReleasesAllAtOnce(t *testing.T) {
	b := NewBarrier(4)
	for p := 0; p < 3; p++ {
		if rel, done := b.Arrive(p); done || rel != nil {
			t.Fatalf("barrier released early at arrival %d", p)
		}
	}
	rel, done := b.Arrive(3)
	if !done || len(rel) != 4 {
		t.Fatalf("final arrival: done=%v released=%v", done, rel)
	}
	seen := map[int]bool{}
	for _, p := range rel {
		seen[p] = true
	}
	for p := 0; p < 4; p++ {
		if !seen[p] {
			t.Fatalf("processor %d missing from release set %v", p, rel)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	b := NewBarrier(2)
	for episode := 0; episode < 3; episode++ {
		b.Arrive(0)
		rel, done := b.Arrive(1)
		if !done || len(rel) != 2 {
			t.Fatalf("episode %d did not release", episode)
		}
		if b.Waiting() != 0 {
			t.Fatalf("episode %d left %d waiting", episode, b.Waiting())
		}
	}
}

func TestBarrierDoubleArrivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double arrival did not panic")
		}
	}()
	b := NewBarrier(3)
	b.Arrive(1)
	b.Arrive(1)
}

// Property: for any party count n >= 1 and any arrival order, exactly the
// n-th arrival releases, and the release set is the arrival set.
func TestBarrierCountingProperty(t *testing.T) {
	f := func(n uint8) bool {
		parties := int(n%16) + 1
		b := NewBarrier(parties)
		for p := 0; p < parties-1; p++ {
			if _, done := b.Arrive(p); done {
				return false
			}
		}
		rel, done := b.Arrive(parties - 1)
		return done && len(rel) == parties && b.Waiting() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReusedStorage runs a barrier and a lock through many episodes on the
// storage they keep: each barrier episode must release its own arrivals in
// arrival order, the lock must grant its waiters first come, first served
// while acquires and releases interleave, and once warm neither may
// allocate.
func TestReusedStorage(t *testing.T) {
	const n = 5
	b := NewBarrier(n)
	var l Lock
	var granted []int
	episode := func(e int) {
		for i := 0; i < n; i++ {
			p := (i*3 + e) % n // a different arrival order each episode
			rel, done := b.Arrive(p)
			if done != (i == n-1) {
				t.Fatalf("episode %d: arrival %d reported done=%v", e, i, done)
			}
			if done {
				for j, q := range rel {
					if want := (j*3 + e) % n; q != want {
						t.Fatalf("episode %d: released %v, want arrival order", e, rel)
					}
				}
			}
		}
		// The lock: 0 holds it; 1 and 2 queue; a release hands it to 1;
		// 3 queues behind 2; releases hand it to 2, then 3, then free it.
		granted = granted[:0]
		l.Acquire(0)
		l.Acquire(1)
		l.Acquire(2)
		holder := 0
		release := func() {
			next, ok := l.Release(holder)
			if ok {
				granted = append(granted, next)
				holder = next
			}
		}
		release()
		l.Acquire(3)
		release()
		release()
		release()
		if len(granted) != 3 || granted[0] != 1 || granted[1] != 2 || granted[2] != 3 || l.Held() {
			t.Fatalf("episode %d: lock granted %v, held %v; want [1 2 3] then free", e, granted, l.Held())
		}
	}
	for e := 0; e < 4; e++ {
		episode(e)
	}
	e := 4
	if allocs := testing.AllocsPerRun(100, func() { episode(e); e++ }); allocs != 0 {
		t.Fatalf("a warm barrier and lock allocated %.1f times per episode", allocs)
	}
}
