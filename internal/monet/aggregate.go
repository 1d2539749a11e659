package monet

import (
	"fmt"
	"math"

	"cobra/internal/obs"
)

// opAggregate counts kernel aggregate invocations (sum/avg/min/max).
var opAggregate = obs.C("monet.bat.aggregate")

// Count returns the number of associations.
func (b *BAT) Count() int64 { return int64(b.Len()) }

// Sum returns the sum of the tail column as float64. Non-numeric tails
// yield an error. Large BATs sum morsel-parallel with the per-morsel
// partials added in morsel order, so the result is the same for every
// pool width (and equals the serial fold exactly whenever the values
// are exactly representable, e.g. integer-valued tails).
func (b *BAT) Sum() (float64, error) {
	opAggregate.Inc()
	if err := b.requireNumericTail("sum"); err != nil {
		return 0, err
	}
	if p, ok := poolFor(b.Len()); ok {
		parts := make([]float64, numMorsels(b.Len()))
		runMorsels(p, b.Len(), hPoolAggLat, hPoolAggSpd, func(m, lo, hi int) {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += b.tail.Get(i).Float()
			}
			parts[m] = s
		})
		s := 0.0
		for _, v := range parts {
			s += v
		}
		return s, nil
	}
	s := 0.0
	for i := 0; i < b.Len(); i++ {
		s += b.tail.Get(i).Float()
	}
	return s, nil
}

// Avg returns the mean of the tail column; NaN for an empty BAT.
func (b *BAT) Avg() (float64, error) {
	opAggregate.Inc()
	if err := b.requireNumericTail("avg"); err != nil {
		return 0, err
	}
	if b.Len() == 0 {
		return math.NaN(), nil
	}
	s, err := b.Sum()
	if err != nil {
		return 0, err
	}
	return s / float64(b.Len()), nil
}

// bestIdx returns the position of the extreme tail under sign (+1 for
// max, -1 for min), preferring the first occurrence on ties — the same
// position the serial strict-compare scan picks. Large BATs find a
// per-morsel best in parallel, then merge the morsel winners in morsel
// order with the same strict compare.
func (b *BAT) bestIdx(sign int) int {
	if p, ok := poolFor(b.Len()); ok {
		parts := make([]int, numMorsels(b.Len()))
		runMorsels(p, b.Len(), hPoolAggLat, hPoolAggSpd, func(m, lo, hi int) {
			bi := lo
			for i := lo + 1; i < hi; i++ {
				if sign*Compare(b.tail.Get(i), b.tail.Get(bi)) > 0 {
					bi = i
				}
			}
			parts[m] = bi
		})
		bi := parts[0]
		for _, c := range parts[1:] {
			if sign*Compare(b.tail.Get(c), b.tail.Get(bi)) > 0 {
				bi = c
			}
		}
		return bi
	}
	bi := 0
	for i := 1; i < b.Len(); i++ {
		if sign*Compare(b.tail.Get(i), b.tail.Get(bi)) > 0 {
			bi = i
		}
	}
	return bi
}

// Max returns the largest tail value; ok is false for an empty BAT.
func (b *BAT) Max() (Value, bool) {
	opAggregate.Inc()
	if b.Len() == 0 {
		return Value{}, false
	}
	return b.tail.Get(b.bestIdx(1)), true
}

// Min returns the smallest tail value; ok is false for an empty BAT.
func (b *BAT) Min() (Value, bool) {
	opAggregate.Inc()
	if b.Len() == 0 {
		return Value{}, false
	}
	return b.tail.Get(b.bestIdx(-1)), true
}

// ArgMax returns the head whose tail is largest (MIL: reverse().find(max));
// ok is false for an empty BAT.
func (b *BAT) ArgMax() (Value, bool) {
	if b.Len() == 0 {
		return Value{}, false
	}
	return b.head.Get(b.bestIdx(1)), true
}

// ArgMin returns the head whose tail is smallest.
func (b *BAT) ArgMin() (Value, bool) {
	if b.Len() == 0 {
		return Value{}, false
	}
	return b.head.Get(b.bestIdx(-1)), true
}

// Group clusters associations by tail value and returns a BAT
// [head, oid] mapping each head to its group id, plus a BAT
// [oid, tail] mapping group ids to representative tail values.
func (b *BAT) Group() (members, groups *BAT) {
	members = NewBATCap(materialType(b.head.Type()), OIDT, b.Len())
	groups = NewBAT(OIDT, b.tail.Type())
	ids := map[string]OID{}
	next := OID(0)
	for i := 0; i < b.Len(); i++ {
		t := b.tail.Get(i)
		key := t.String()
		id, ok := ids[key]
		if !ok {
			id = next
			next++
			ids[key] = id
			groups.MustInsert(NewOID(id), t)
		}
		members.MustInsert(b.head.Get(i), NewOID(id))
	}
	return members, groups
}

// GroupSum computes, for a BAT [g, x] of numeric x, the per-group sum,
// returned as a BAT [g, dbl].
func (b *BAT) GroupSum() (*BAT, error) { return b.groupFold("sum") }

// GroupCount computes the per-group association count as [g, int].
func (b *BAT) GroupCount() (*BAT, error) { return b.groupFold("count") }

// GroupMax computes the per-group maximum tail as [g, dbl].
func (b *BAT) GroupMax() (*BAT, error) { return b.groupFold("max") }

// GroupMin computes the per-group minimum tail as [g, dbl].
func (b *BAT) GroupMin() (*BAT, error) { return b.groupFold("min") }

// GroupAvg computes the per-group mean tail as [g, dbl]: each group's
// sum over its count, both read from the same group slot.
func (b *BAT) GroupAvg() (*BAT, error) { return b.groupFold("avg") }

// Grouped aggregation is one typed fold, run the same way at every
// pool width. The rows split into one contiguous, morsel-aligned chunk
// per pool worker (runChunks); each chunk folds its rows into a
// groupPart through an arena-recycled key→slot map, and the parts
// merge in chunk order. Chunk order is row order, so groups come out
// in first-occurrence order and counts, minima, maxima and
// integer-valued sums are identical at every width; with one worker
// the fold is a single sequential pass.
//
// Heads key on their raw payload where they have one — the int64 of
// int, oid, bit and void heads, the string of str heads — and on
// Value.String() otherwise, so float and blob heads group exactly as
// their rendered values do (NaN with NaN, -0 apart from 0).

// groupPartCap is the initial group capacity of a chunk's part: the
// paper's group columns (event types, shot classes, drivers) hold a
// few dozen distinct values; larger group counts grow by doubling.
const groupPartCap = 64

// groupSlot is one group's state: the row the group first occurs at,
// its row count and its folded tail.
type groupSlot struct {
	first int
	count int64
	acc   float64
}

// groupPart is the grouped state of one chunk, groups in
// first-occurrence order.
type groupPart []groupSlot

// groupAgg is the per-group tail fold of one grouped op: fold with its
// identity init over the tail values val reads. A nil fold only counts.
type groupAgg struct {
	fold func(acc, x float64) float64
	init float64
	val  func(i int) float64
}

// groupFold computes the grouped op ("count", "sum", "min", "max" or
// "avg") per head group, picking the head's grouping key.
func (b *BAT) groupFold(op string) (*BAT, error) {
	agg := &groupAgg{}
	switch op {
	case "sum", "avg":
		agg.fold = func(acc, x float64) float64 { return acc + x }
	case "min":
		agg.fold, agg.init = math.Min, math.Inf(1)
	case "max":
		agg.fold, agg.init = math.Max, math.Inf(-1)
	}
	if agg.fold != nil {
		if err := b.requireNumericTail(op); err != nil {
			return nil, err
		}
		agg.val = floatReader(b.tail)
	}
	switch h := b.head.(type) {
	case *strColumn:
		return foldGroups(b, op, agg, (*Arena).StrSlots, func(i int) string { return h.v[i] }), nil
	case *voidColumn:
		return foldGroups(b, op, agg, (*Arena).IntSlots, func(i int) int64 { return int64(i) }), nil
	}
	if key := intReader(b.head); key != nil {
		return foldGroups(b, op, agg, (*Arena).IntSlots, key), nil
	}
	return foldGroups(b, op, agg, (*Arena).StrSlots, func(i int) string { return b.head.Get(i).String() }), nil
}

// foldGroups is the grouped fold over heads keyed by key, with
// slotsOf picking the arena's recycled key→slot map for K.
func foldGroups[K comparable](b *BAT, op string, agg *groupAgg, slotsOf func(*Arena) map[K]int32, key func(i int) K) *BAT {
	parts := runChunks(b.Len(), hPoolAggLat, hPoolAggSpd, func(lo, hi int) groupPart {
		t := make(groupPart, 0, min(hi-lo, groupPartCap))
		a := GetArena()
		slots := slotsOf(a)
		for i := lo; i < hi; i++ {
			k := key(i)
			s, seen := slots[k]
			if !seen {
				s = int32(len(t))
				t = append(t, groupSlot{first: i, acc: agg.init})
				//cobravet:allow allochot // one insert per DISTINCT group, bounded by group count not rows; the slot map is recycled through the arena
				slots[k] = s
			}
			t[s].count++
			if agg.fold != nil {
				t[s].acc = agg.fold(t[s].acc, agg.val(i))
			}
		}
		PutArena(a)
		return t
	})
	// Merge later chunks into the first in chunk order.
	t := parts[0]
	if len(parts) > 1 {
		a := GetArena()
		slots := slotsOf(a)
		for g := range t {
			slots[key(t[g].first)] = int32(g)
		}
		for _, part := range parts[1:] {
			for _, p := range part {
				k := key(p.first)
				s, seen := slots[k]
				if !seen {
					s = int32(len(t))
					t = append(t, groupSlot{first: p.first, acc: agg.init})
					slots[k] = s
				}
				t[s].count += p.count
				if agg.fold != nil {
					t[s].acc = agg.fold(t[s].acc, p.acc)
				}
			}
		}
		PutArena(a)
	}
	tail := FloatT
	if op == "count" {
		tail = IntT
	}
	out := NewBATCap(materialType(b.head.Type()), tail, len(t))
	for _, g := range t {
		v := NewInt(g.count)
		switch op {
		case "avg":
			v = NewFloat(g.acc / float64(g.count))
		case "sum", "min", "max":
			v = NewFloat(g.acc)
		}
		out.MustInsert(b.head.Get(g.first), v)
	}
	return out
}

// floatReader returns a raw float64 accessor over a numeric column,
// producing exactly the values Get(i).Float() would, without boxing.
// It returns nil for non-numeric columns.
func floatReader(c Column) func(i int) float64 {
	switch c := c.(type) {
	case *floatColumn:
		v := c.v
		return func(i int) float64 { return v[i] }
	case *intColumn:
		v := c.v
		return func(i int) float64 { return float64(v[i]) }
	case *oidColumn:
		v := c.v
		return func(i int) float64 { return float64(v[i]) }
	case *boolColumn:
		v := c.v
		return func(i int) float64 {
			if v[i] {
				return 1
			}
			return 0
		}
	}
	return nil
}

// Histogram returns a BAT [tail-value, int] counting occurrences of
// each distinct tail value.
func (b *BAT) Histogram() *BAT {
	return b.Reverse().mustGroupCount()
}

func (b *BAT) mustGroupCount() *BAT {
	out, err := b.GroupCount()
	if err != nil {
		panic(err)
	}
	return out
}

func (b *BAT) requireNumericTail(op string) error {
	switch b.tail.Type() {
	case IntT, FloatT, BoolT, OIDT:
		return nil
	default:
		return fmt.Errorf("%w: %s over %v tail", ErrTypeMismatch, op, b.tail.Type())
	}
}
