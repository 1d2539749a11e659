package monet

import (
	"context"
	"runtime"
	"testing"
)

// Allocation-regression tests for the morsel-body fixes the allochot
// analyzer drove: parallel filter, grouped aggregation, hash-join
// probe, and the sharded hash build must not allocate per ROW — only
// per MORSEL (a handful of fixed-size scratch buffers each). The
// bounds below are per-operation ceilings in units of morsels, with
// generous headroom for pool scheduling noise; before the fixes the
// per-row append/map growth put these one to two orders of magnitude
// higher.

// allocsPerOp measures total heap allocations per run of fn across all
// goroutines (runtime.MemStats, not testing.AllocsPerRun, because the
// morsel work happens on pool workers).
func allocsPerOp(runs int, fn func()) float64 {
	fn() // warm caches, pool, lazily built state
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

const allocRows = 1 << 16 // 64 morsels at MorselSize 1024

func allocBudget(perMorsel int) float64 {
	return float64(numMorsels(allocRows)*perMorsel + 256)
}

func TestSelectAllocsPerMorsel(t *testing.T) {
	var got float64
	withWorkers(t, 4, func() {
		bat := benchIntBAT(allocRows, 1000)
		lo, hi := NewInt(100), NewInt(199)
		got = allocsPerOp(5, func() { bat.Select(lo, hi) })
	})
	// Morsel scratch: one preallocated index slice per morsel, plus
	// fan-out closures, spans, and the result BAT.
	if max := allocBudget(8); got > max {
		t.Fatalf("Select allocates %.0f/op, budget %.0f (per-row growth crept back in?)", got, max)
	}
}

func TestGroupSumAllocsPerMorsel(t *testing.T) {
	bat := NewBATCap(IntT, IntT, allocRows)
	for i := 0; i < allocRows; i++ {
		bat.MustInsert(NewInt(int64(i%64)), NewInt(int64(i%100)))
	}
	for _, width := range []int{1, 4} {
		var got float64
		withWorkers(t, width, func() {
			got = allocsPerOp(5, func() {
				if _, err := bat.GroupSum(); err != nil {
					t.Fatal(err)
				}
			})
		})
		// The grouped fold keeps one partial per pool worker, not per
		// morsel, and recycles its key→slot maps through the arena, so
		// steady state is a fixed handful of allocations per OPERATION —
		// fan-out plumbing, the per-worker partials and the output BAT.
		// The ceiling is a tenth of the pre-arena per-morsel budget
		// (allocBudget(24)); regressing past it means partials went back
		// to per-morsel or arena reuse broke. Measured steady state is
		// ~11/op at width 1 and ~24/op at width 4 against a ceiling of
		// ~35.
		if max := allocBudget(24) / 10; got > max {
			t.Fatalf("width %d: GroupSum allocates %.0f/op, budget %.0f (per-morsel partials or arena reuse broken?)", width, got, max)
		}
	}
}

func TestJoinAllocsPerMorsel(t *testing.T) {
	var got float64
	withWorkers(t, 4, func() {
		const keys = 1 << 12
		left := benchIntBAT(allocRows, keys)
		right := NewBATCap(IntT, IntT, keys)
		for i := 0; i < keys; i++ {
			right.MustInsert(NewInt(int64(i)), NewInt(int64(i)*2))
		}
		got = allocsPerOp(5, func() {
			if _, err := left.Join(right); err != nil {
				t.Fatal(err)
			}
		})
	})
	// The compact int hash table (one flat position array + one slot
	// map per shard) replaced the per-key position lists, and the probe
	// and build morsel scratch comes from arenas, so the whole join —
	// build AND probe — costs a fixed handful of allocations per
	// operation. The ceiling is a tenth of the pre-arena budget
	// (allocBudget(48) + 2 per distinct build key); measured steady
	// state is ~67/op against a ceiling of ~1150.
	if max := (allocBudget(48) + 2*(1<<12)) / 10; got > max {
		t.Fatalf("Join allocates %.0f/op, budget %.0f (arena reuse or compact table broken?)", got, max)
	}
}

// TestFusedAggregateAllocs pins the fused select→sum pipeline's
// steady-state allocation count: consuming index-answered runs into a
// scalar must not materialize positions or gather an intermediate.
func TestFusedAggregateAllocs(t *testing.T) {
	var got float64
	withWorkers(t, 4, func() {
		store := NewStore()
		val := NewBATCap(Void, IntT, allocRows)
		for i := 0; i < allocRows; i++ {
			val.MustInsert(VoidValue(), NewInt(int64(i%1000)))
		}
		if err := store.Put("bench/val", val); err != nil {
			t.Fatal(err)
		}
		p := store.Pipeline("bench/val", NewInt(100), NewInt(199))
		ctx := context.Background()
		got = allocsPerOp(5, func() {
			if _, _, err := p.Aggregate(ctx, "bench/val", "sum"); err != nil {
				t.Fatal(err)
			}
		})
	})
	// Capture, gate probe, span bookkeeping, and the scalar merge — all
	// fixed-count; measured steady state is ~30/op.
	if got > 256 {
		t.Fatalf("fused Aggregate allocates %.0f/op, budget 256 (materialization crept back in?)", got)
	}
}

// TestArenaShrinkAfterResize proves narrowing the pool releases the
// excess parked arenas instead of leaking them: after wide-pool work
// populates the free list, shrinking the pool must cap both the
// parked-arena count and the retained scratch bytes at the new width.
func TestArenaShrinkAfterResize(t *testing.T) {
	prev := SetDefaultPoolWorkers(8)
	defer SetDefaultPoolWorkers(prev)
	bat := NewBATCap(IntT, IntT, allocRows)
	for i := 0; i < allocRows; i++ {
		bat.MustInsert(NewInt(int64(i%64)), NewInt(int64(i%100)))
	}
	for r := 0; r < 3; r++ {
		if _, err := bat.GroupSum(); err != nil {
			t.Fatal(err)
		}
	}
	if wide, _ := ArenaStats(); wide == 0 {
		t.Fatal("wide-pool work parked no arenas; fixture no longer exercises the pool")
	}
	SetDefaultPoolWorkers(2)
	retained, bytes := ArenaStats()
	if retained > 2 {
		t.Fatalf("after shrinking the pool to 2 workers, %d arenas remain parked (leak)", retained)
	}
	if retained == 0 && bytes != 0 {
		t.Fatalf("free list empty but %d scratch bytes still reported retained", bytes)
	}
}
