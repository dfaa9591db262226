package core

import (
	"reflect"
	"testing"
	"unsafe"
)

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

// TestRetireMSHRResetsEveryField fills every field of an MSHR, retires it,
// and requires the record to equal mshr{} once its five slices are set to
// nil: a field added to mshr without a reset in retireMSHR fails here. The
// slices must come back empty with their storage, and the three that hold
// callbacks or obligations cleared, so a retired record keeps nothing alive.
func TestRetireMSHRResetsEveryField(t *testing.T) {
	c := &CacheCtl{sys: &System{}}
	i, ms := c.sys.mshrs.get()
	v := reflect.ValueOf(ms).Elem()
	for f := 0; f < v.NumField(); f++ {
		fv := reflect.NewAt(v.Field(f).Type(), unsafe.Pointer(v.Field(f).UnsafeAddr())).Elem()
		switch fv.Kind() {
		case reflect.Bool:
			fv.SetBool(true)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			fv.SetInt(3)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			fv.SetUint(3)
		case reflect.Slice:
			fv.Set(reflect.MakeSlice(fv.Type(), 2, 2))
		default:
			t.Fatalf("mshr.%s is a %v: teach this test to fill it", v.Type().Field(f).Name, fv.Kind())
		}
	}
	ms.idx = i
	ms.readers[1].fn = func() {}
	ms.performed[1] = func() {}
	ms.after[1].obs = []int{1}
	c.retireMSHR(ms)
	for _, n := range []struct{ len, cap int }{
		{len(ms.readers), cap(ms.readers)}, {len(ms.performed), cap(ms.performed)},
		{len(ms.after), cap(ms.after)}, {len(ms.obs), cap(ms.obs)}, {len(ms.words), cap(ms.words)},
	} {
		if n.len != 0 || n.cap != 2 {
			t.Fatalf("a retired MSHR's slice has length %d and capacity %d, want 0 and 2", n.len, n.cap)
		}
	}
	if ms.readers[:2][1].fn != nil || ms.performed[:2][1] != nil || ms.after[:2][1].obs != nil {
		t.Fatal("a retired MSHR's storage keeps a callback or an obligation list alive")
	}
	ms.readers, ms.performed, ms.after, ms.obs, ms.words = nil, nil, nil, nil, nil
	if !reflect.DeepEqual(*ms, mshr{}) {
		t.Fatalf("retired MSHR = %+v, want every field zero", *ms)
	}
}
