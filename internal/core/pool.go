package core

// poolChunk is a pool's growth step, in records. Most runs are short, so a
// small step leaves little of the last chunk unused.
const poolChunk = 16

// pool holds a run's records of one type: MSHRs, held requests,
// transaction records, hops and jobs. Records live in chunks of poolChunk,
// so a record's address never changes, and are named by index from 1; 0
// names none, so a record can be named from pointer-free state. Released
// indices form a stack threaded through the chunks, and are handed out
// again, last released first, before the pool grows. The pool never clears
// a record: each caller resets what it reuses.
type pool[T any] struct {
	chunks []*chunk[T]
	free   int32 // the last released index, 0 when none is free
	used   int32 // records ever handed out
}

// chunk is poolChunk records and, for each record while it is released,
// the index released before it (0 at the bottom of the stack).
type chunk[T any] struct {
	recs [poolChunk]T
	next [poolChunk]int32
}

// at returns record i (i >= 1).
func (p *pool[T]) at(i int32) *T {
	u := uint32(i) - 1
	return &p.chunks[u/poolChunk].recs[u%poolChunk]
}

// next returns the free-stack link of record i (i >= 1).
func (p *pool[T]) next(i int32) *int32 {
	u := uint32(i) - 1
	return &p.chunks[u/poolChunk].next[u%poolChunk]
}

// get returns a record and its index, growing the pool by a chunk when
// every record is in use. A reused record holds what it held when put.
func (p *pool[T]) get() (int32, *T) {
	if i := p.free; i != 0 {
		p.free = *p.next(i)
		return i, p.at(i)
	}
	if int(p.used) == len(p.chunks)*poolChunk {
		p.chunks = append(p.chunks, new(chunk[T]))
	}
	p.used++
	return p.used, p.at(p.used)
}

// put releases record i for reuse.
func (p *pool[T]) put(i int32) {
	*p.next(i) = p.free
	p.free = i
}
