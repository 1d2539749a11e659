package monet

import (
	"sync"

	"cobra/internal/obs"
)

// Morsel arenas: reusable per-morsel scratch memory for the fused
// execution paths (pipeline.go) and the allocation-disciplined grouped
// aggregation (aggregate.go). A morsel callback borrows an Arena from
// the package free list, carves typed scratch buffers out of it, and
// returns it when the morsel ends; the buffers keep their capacity
// across morsels and across queries, so steady-state fan-outs allocate
// nothing per morsel.
//
// Contract (enforced by the cobravet arenaescape analyzer): buffers
// handed out by an Arena are valid only until the next Reset/PutArena.
// They must never be returned from the morsel callback, stored into
// captured variables that outlive it, or retained in struct fields —
// per-morsel results that survive the morsel must be copied into
// exact-size fresh slices first.
//
// The free list is pool-width-sized: at most one parked arena per
// worker, so the retained scratch is bounded by pool width × the
// largest morsel working set, and SetDefaultPoolWorkers shrinks the
// list when the pool narrows.

// Arena-reuse metrics (monet.arena.*): how often morsels ran on
// recycled scratch versus fresh allocations, how many arenas the
// width-sized free list discarded, and how much scratch stays parked.
var (
	cArenaGets     = obs.C("monet.arena.gets")
	cArenaReuses   = obs.C("monet.arena.reuses")
	cArenaAllocs   = obs.C("monet.arena.allocs")
	cArenaDiscards = obs.C("monet.arena.discards")
	gArenaRetained = obs.G("monet.arena.retained")
	gArenaBytes    = obs.G("monet.arena.bytes")
)

// arenaBuf is one class of reusable scratch: a stack of previously
// handed-out buffers, rewound by Reset and regrown in place when a
// request outgrows the recycled capacity.
type arenaBuf[T any] struct {
	bufs [][]T
	next int
}

// get returns a slice of length n with unspecified contents, reusing
// the buffer handed out at this position in the previous cycle when
// its capacity suffices.
func (b *arenaBuf[T]) get(n int) []T {
	if b.next < len(b.bufs) {
		if s := b.bufs[b.next]; cap(s) >= n {
			b.next++
			return s[:n]
		}
		s := make([]T, n)
		b.bufs[b.next] = s
		b.next++
		return s
	}
	s := make([]T, n)
	b.bufs = append(b.bufs, s)
	b.next++
	return s
}

// reset rewinds the stack; retained buffers keep their capacity.
func (b *arenaBuf[T]) reset() { b.next = 0 }

// retained returns the element count parked across all buffers.
func (b *arenaBuf[T]) retained() int {
	n := 0
	for _, s := range b.bufs {
		n += cap(s)
	}
	return n
}

// Arena is reusable morsel-scoped scratch memory. It is not safe for
// concurrent use; each borrower owns it exclusively between GetArena
// and PutArena. The zero Arena is ready to use.
type Arena struct {
	ints     arenaBuf[int]
	i64s     arenaBuf[int64]
	f64s     arenaBuf[float64]
	intSlots map[int64]int32
	strSlots map[string]int32
}

// Ints returns a reusable []int of length n; contents are unspecified.
func (a *Arena) Ints(n int) []int { return a.ints.get(n) }

// Int64s returns a reusable []int64 of length n; contents are
// unspecified.
func (a *Arena) Int64s(n int) []int64 { return a.i64s.get(n) }

// Floats returns a reusable []float64 of length n; contents are
// unspecified.
func (a *Arena) Floats(n int) []float64 { return a.f64s.get(n) }

// IntSlots returns the arena's reusable int64→slot map, emptied. The
// map reaches a steady-state bucket count after a few morsels and
// then clears without allocating.
func (a *Arena) IntSlots() map[int64]int32 {
	if a.intSlots == nil {
		a.intSlots = make(map[int64]int32)
	}
	clear(a.intSlots)
	return a.intSlots
}

// StrSlots returns the arena's reusable string→slot map, emptied.
func (a *Arena) StrSlots() map[string]int32 {
	if a.strSlots == nil {
		a.strSlots = make(map[string]int32)
	}
	clear(a.strSlots)
	return a.strSlots
}

// Reset rewinds every scratch class without freeing: the next cycle of
// get calls reuses the same buffers (reset-not-free).
func (a *Arena) Reset() {
	a.ints.reset()
	a.i64s.reset()
	a.f64s.reset()
}

// retainedBytes estimates the scratch capacity the arena keeps parked.
func (a *Arena) retainedBytes() int64 {
	n := int64(a.ints.retained())*8 +
		int64(a.i64s.retained())*8 +
		int64(a.f64s.retained())*8
	n += int64(len(a.intSlots))*16 + int64(len(a.strSlots))*24
	return n
}

// arenaPool is the package-wide free list of parked arenas. Capacity
// tracks the kernel pool width: with w workers at most w morsels run
// concurrently, so parking more than w arenas is pure leak.
var arenaPool struct {
	mu   sync.Mutex
	free []*Arena
	cap  int // 0 = follow the default pool width lazily
}

// arenaPoolCap returns the current free-list capacity, deriving it
// from the shared pool width when no explicit resize happened yet.
func arenaPoolCapLocked() int {
	if arenaPool.cap > 0 {
		return arenaPool.cap
	}
	return DefaultPool().Workers()
}

// GetArena borrows an arena from the free list (or allocates a fresh
// one). The caller owns it exclusively until PutArena.
func GetArena() *Arena {
	cArenaGets.Inc()
	arenaPool.mu.Lock()
	if n := len(arenaPool.free); n > 0 {
		a := arenaPool.free[n-1]
		arenaPool.free[n-1] = nil
		arenaPool.free = arenaPool.free[:n-1]
		gArenaRetained.Set(int64(len(arenaPool.free)))
		arenaPool.mu.Unlock()
		cArenaReuses.Inc()
		return a
	}
	arenaPool.mu.Unlock()
	cArenaAllocs.Inc()
	return &Arena{}
}

// PutArena resets a and parks it for reuse. Arenas beyond the
// pool-width capacity are discarded to the garbage collector — the
// free list never outgrows the number of workers that can need
// scratch at once.
func PutArena(a *Arena) {
	if a == nil {
		return
	}
	a.Reset()
	arenaPool.mu.Lock()
	if len(arenaPool.free) < arenaPoolCapLocked() {
		arenaPool.free = append(arenaPool.free, a)
		gArenaRetained.Set(int64(len(arenaPool.free)))
		gArenaBytes.Set(retainedBytesLocked())
		arenaPool.mu.Unlock()
		return
	}
	arenaPool.mu.Unlock()
	cArenaDiscards.Inc()
}

// retainedBytesLocked sums the scratch parked on the free list; the
// caller holds arenaPool.mu.
func retainedBytesLocked() int64 {
	var n int64
	for _, a := range arenaPool.free {
		n += a.retainedBytes()
	}
	return n
}

// resizeArenaPool pins the free-list capacity to the new pool width
// and drops parked arenas beyond it, so narrowing the pool releases
// the excess scratch instead of leaking it. SetDefaultPoolWorkers
// calls it on every resize.
func resizeArenaPool(width int) {
	if width < 1 {
		width = 1
	}
	arenaPool.mu.Lock()
	arenaPool.cap = width
	for len(arenaPool.free) > width {
		n := len(arenaPool.free)
		arenaPool.free[n-1] = nil
		arenaPool.free = arenaPool.free[:n-1]
		cArenaDiscards.Inc()
	}
	gArenaRetained.Set(int64(len(arenaPool.free)))
	gArenaBytes.Set(retainedBytesLocked())
	arenaPool.mu.Unlock()
}

// ArenaStats reports the free-list state: parked arena count and the
// approximate bytes of scratch they retain. It backs the
// monet.arena.* gauges and the arena leak tests.
func ArenaStats() (retained int, bytes int64) {
	arenaPool.mu.Lock()
	defer arenaPool.mu.Unlock()
	return len(arenaPool.free), retainedBytesLocked()
}
