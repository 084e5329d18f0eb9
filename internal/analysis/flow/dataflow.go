package flow

// BitSet is a fixed-universe bit vector: the fact domain of the dataflow
// framework. The universe size is fixed at creation; all sets combined by
// one Problem must share it.
type BitSet struct {
	words []uint64
	n     int
}

// NewBitSet returns an empty set over a universe of n bits.
func NewBitSet(n int) BitSet {
	return BitSet{words: make([]uint64, (n+63)/64), n: n}
}

// Set adds bit i.
func (b BitSet) Set(i int) { b.words[i/64] |= 1 << (i % 64) }

// Clear removes bit i.
func (b BitSet) Clear(i int) { b.words[i/64] &^= 1 << (i % 64) }

// Has reports whether bit i is present.
func (b BitSet) Has(i int) bool { return b.words[i/64]&(1<<(i%64)) != 0 }

// Fill sets every bit of the universe (the top element of a must-analysis).
func (b BitSet) Fill() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	if r := b.n % 64; r != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << r) - 1
	}
}

// Copy returns an independent copy.
func (b BitSet) Copy() BitSet {
	c := NewBitSet(b.n)
	copy(c.words, b.words)
	return c
}

// UnionWith adds o's bits to b, reporting whether b changed.
func (b BitSet) UnionWith(o BitSet) bool {
	changed := false
	for i := range b.words {
		nw := b.words[i] | o.words[i]
		if nw != b.words[i] {
			b.words[i] = nw
			changed = true
		}
	}
	return changed
}

// IntersectWith keeps only bits present in both, reporting whether b changed.
func (b BitSet) IntersectWith(o BitSet) bool {
	changed := false
	for i := range b.words {
		nw := b.words[i] & o.words[i]
		if nw != b.words[i] {
			b.words[i] = nw
			changed = true
		}
	}
	return changed
}

// Equal reports whether the two sets hold the same bits.
func (b BitSet) Equal(o BitSet) bool {
	for i := range b.words {
		if b.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Problem is one forward dataflow problem over a CFG: block-level gen/kill
// expressed as an arbitrary transfer function, merged at join points by
// union (may-analysis) or intersection (must-analysis), iterated to a
// fixpoint with a worklist.
type Problem struct {
	// Bits is the universe size of the fact sets.
	Bits int

	// Entry is the fact at function entry; nil means the empty set.
	Entry BitSet

	// Must selects intersection merge (facts that hold on EVERY path);
	// false selects union merge (facts that hold on SOME path). Under Must,
	// blocks not yet visited contribute top (all bits), the standard
	// optimistic initialization that makes loops converge to the greatest
	// fixpoint.
	Must bool

	// Transfer computes OUT from IN for one block. It must not retain or
	// mutate in; write the result into the returned set (a fresh or reused
	// set of the same universe).
	Transfer func(b *Block, in BitSet) BitSet
}

// Solution holds the converged facts.
type Solution struct {
	In, Out map[*Block]BitSet
}

// Solve iterates the problem over g to a fixpoint and returns block-level
// IN/OUT facts. Only blocks reachable from Entry are solved; unreachable
// blocks are absent from the maps.
func (p *Problem) Solve(g *Graph) *Solution {
	reach := g.Reachable()
	sol := &Solution{In: map[*Block]BitSet{}, Out: map[*Block]BitSet{}}
	inWork := map[*Block]bool{}
	var work []*Block
	for _, b := range reach {
		work = append(work, b)
		inWork[b] = true
	}
	entry := p.Entry
	if entry.words == nil {
		entry = NewBitSet(p.Bits)
	}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b] = false

		var in BitSet
		if b == g.Entry {
			in = entry.Copy()
		} else {
			first := true
			for _, pred := range b.Preds {
				po, ok := sol.Out[pred]
				if !ok {
					if p.Must {
						continue // unvisited pred contributes top: skip
					}
					continue // unvisited pred contributes bottom: skip
				}
				if first {
					in = po.Copy()
					first = false
				} else if p.Must {
					in.IntersectWith(po)
				} else {
					in.UnionWith(po)
				}
			}
			if first {
				// No visited predecessor yet.
				in = NewBitSet(p.Bits)
				if p.Must {
					in.Fill()
				}
			}
		}
		old, seen := sol.In[b]
		if seen && old.Equal(in) {
			if _, ok := sol.Out[b]; ok {
				continue // no change
			}
		}
		sol.In[b] = in
		out := p.Transfer(b, in.Copy())
		oldOut, hadOut := sol.Out[b]
		if hadOut && oldOut.Equal(out) {
			continue
		}
		sol.Out[b] = out
		for _, s := range b.Succs {
			if !inWork[s] {
				inWork[s] = true
				work = append(work, s)
			}
		}
	}
	return sol
}
