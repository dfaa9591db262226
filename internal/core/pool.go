package core

// poolChunk is a pool's growth step, in records. Most runs are short, so a
// small step leaves little of the last chunk unused.
const poolChunk = 16

// pool holds a run's records of one type: MSHRs, held requests,
// transaction records, hops and jobs. Records live in chunks of poolChunk,
// so a record's address never changes, and are named by index from 1; 0
// names none, so a record can be named from pointer-free state. Released
// indices go on a stack and are handed out again, last released first,
// before the pool grows. The pool never clears a record: each caller
// resets what it reuses.
type pool[T any] struct {
	chunks []*[poolChunk]T
	free   []int32 // released indices
	used   int32   // records ever handed out
}

// at returns record i (i >= 1).
func (p *pool[T]) at(i int32) *T {
	u := uint32(i) - 1
	return &p.chunks[u/poolChunk][u%poolChunk]
}

// get returns a record and its index, growing the pool by a chunk when
// every record is in use. A reused record holds what it held when put.
func (p *pool[T]) get() (int32, *T) {
	if n := len(p.free); n > 0 {
		i := p.free[n-1]
		p.free = p.free[:n-1]
		return i, p.at(i)
	}
	if int(p.used) == len(p.chunks)*poolChunk {
		p.chunks = append(p.chunks, new([poolChunk]T))
	}
	p.used++
	return p.used, p.at(p.used)
}

// put releases record i for reuse.
func (p *pool[T]) put(i int32) { p.free = append(p.free, i) }
