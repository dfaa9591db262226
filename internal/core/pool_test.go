package core

import "testing"

// TestPoolIndexesFromOne pins the naming: a fresh pool hands out 1, 2,
// 3, ..., so 0 is free to mean "no record" in pointer-free state.
func TestPoolIndexesFromOne(t *testing.T) {
	var p pool[txnRec]
	for want := int32(1); want <= 3; want++ {
		if i, r := p.get(); i != want || r != p.at(i) {
			t.Fatalf("get = %d (at agrees: %v), want %d", i, r == p.at(i), want)
		}
	}
}

// TestPoolAddressesStayPut grows a pool across four chunks and checks that
// every record is still where get first returned it: a record's address
// never moves, so a pointer to it outlives the pool's growth.
func TestPoolAddressesStayPut(t *testing.T) {
	var p pool[hop]
	var recs []*hop
	for len(recs) < 3*poolChunk+1 {
		i, r := p.get()
		r.idx = i
		recs = append(recs, r)
	}
	if len(p.chunks) != 4 {
		t.Fatalf("%d chunks, want 4", len(p.chunks))
	}
	for n, r := range recs {
		i := int32(n + 1)
		if got := p.at(i); got != r || got.idx != i {
			t.Fatalf("record %d moved after the pool grew", i)
		}
	}
}

// TestPoolReusesLastReleasedFirst checks that released indices come back,
// the last released first, before the pool hands out a new record.
func TestPoolReusesLastReleasedFirst(t *testing.T) {
	var p pool[heldReq]
	for n := 0; n < 5; n++ {
		p.get()
	}
	p.put(2)
	p.put(4)
	for _, want := range []int32{4, 2, 6} {
		if i, _ := p.get(); i != want {
			t.Fatalf("get = %d, want %d", i, want)
		}
	}
}

// TestPoolWarmAllocatesNothing pins the recycling path: once a pool holds
// the records a run has in flight at once, getting and putting them
// allocates nothing.
func TestPoolWarmAllocatesNothing(t *testing.T) {
	var p pool[slcJob]
	i, _ := p.get()
	j, _ := p.get()
	p.put(j)
	p.put(i)
	n := testing.AllocsPerRun(100, func() {
		i, _ := p.get()
		j, _ := p.get()
		p.put(j)
		p.put(i)
	})
	if n != 0 {
		t.Fatalf("warm get and put: %v allocs, want 0", n)
	}
}

// TestPoolKeepsReleasedRecord checks that the pool clears nothing: a
// released record comes back holding what it held. An MSHR relies on it
// to keep its slices' storage from one transaction to the next.
func TestPoolKeepsReleasedRecord(t *testing.T) {
	var p pool[mshr]
	i, ms := p.get()
	ms.words = append(ms.words, 5, 7)
	ms.block = 9
	p.put(i)
	j, again := p.get()
	if j != i || again != ms {
		t.Fatalf("get = %d, want the released record %d", j, i)
	}
	if again.block != 9 || len(again.words) != 2 || again.words[1] != 7 {
		t.Fatalf("released record came back as block %d, words %v", again.block, again.words)
	}
}
