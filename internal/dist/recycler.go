package dist

import "math/bits"

// recyclerHdrChunk is the Dist-header count per Recycler chunk.
const recyclerHdrChunk = 64

// Recycler keeps compact copies of scratch distributions for a holder
// that retains each one for a while and then drops it — the live
// arrivals of the accelerated optimizer's perturbation fronts. Mass
// vectors are recycled by power-of-two capacity class and headers
// through a free list, so a steady stream of Keep/Drop pairs reaches a
// working set and then stops allocating.
//
// Ownership rules (see DESIGN.md, "Memory model"):
//
//   - A kept value is a Kept, which only Keep produces and only Drop
//     accepts. It is valid until its holder drops it. Drop it exactly
//     once, through the recycler that kept it; afterwards its memory
//     serves the next Keep.
//   - A recycler serves exactly one goroutine at a time; nothing in it
//     is synchronized.
//   - Release forgets the free lists, so a recycler retains nothing
//     between runs; values still held stay valid.
type Recycler struct {
	free  [bits.UintSize][][]float64 // free mass vectors by log2 capacity
	hdrs  []*Dist                    // free headers
	chunk []Dist                     // unused tail of the current header chunk
	held  int                        // kept values not yet dropped
}

// Kept is a value a Recycler holds for its holder: produced only by
// Keep and accepted only by Drop, so a front's live arrivals and sink,
// typed Kept, cannot hold a raw arena view. The zero Kept holds
// nothing.
type Kept struct{ d *Dist }

// Dist returns the kept distribution, nil for the zero Kept. It is
// scratch: read it while the holder keeps it, and Persist it to retain
// it past the Drop.
func (k Kept) Dist() *Dist { return k.d }

// Keep returns a copy of d in recycled storage when d is scratch (an
// arena view or another recycled value), or d itself when it is an
// ordinary immutable value, which is held by pointer and never
// recycled. The copy is bit-identical and is itself scratch: Persist
// copies it out.
func (r *Recycler) Keep(d *Dist) Kept {
	if !d.scratch {
		return Kept{d}
	}
	n := len(d.p)
	c := bits.Len(uint(n - 1))
	var p []float64
	if k := len(r.free[c]); k > 0 {
		p = r.free[c][k-1][:n]
		r.free[c] = r.free[c][:k-1]
	} else {
		p = make([]float64, n, 1<<c)
	}
	copy(p, d.p)
	var h *Dist
	if k := len(r.hdrs); k > 0 {
		h = r.hdrs[k-1]
		r.hdrs = r.hdrs[:k-1]
	} else {
		if len(r.chunk) == 0 {
			r.chunk = make([]Dist, recyclerHdrChunk)
		}
		h = &r.chunk[0]
		r.chunk = r.chunk[1:]
	}
	h.dt, h.i0, h.p, h.scratch, h.recycled = d.dt, d.i0, p, true, true
	h.clearCum()
	r.held++
	return Kept{h}
}

// Drop returns a value Keep copied into recycled storage; any other
// value (one Keep returned as is, or the zero Kept) is left alone. The
// dropped value must not be used again.
func (r *Recycler) Drop(k Kept) {
	d := k.d
	if d == nil || !d.recycled {
		return
	}
	if d.p == nil {
		panic("dist: Recycler.Drop of a value already dropped")
	}
	p := d.p[:cap(d.p)]
	c := bits.Len(uint(len(p) - 1))
	r.free[c] = append(r.free[c], p)
	d.p = nil
	r.hdrs = append(r.hdrs, d)
	r.held--
}

// Held reports how many kept values have not been dropped yet.
func (r *Recycler) Held() int { return r.held }

// Release forgets the free lists, so the recycler retains no memory of
// its own until the next Keep.
func (r *Recycler) Release() {
	r.free = [bits.UintSize][][]float64{}
	r.hdrs = nil
	r.chunk = nil
}

// FootprintBytes reports the memory the recycler retains for reuse:
// free mass vectors, free headers and the current header chunk.
func (r *Recycler) FootprintBytes() int {
	n := 0
	for _, class := range r.free {
		for _, p := range class {
			n += 8 * cap(p)
		}
	}
	return n + (len(r.hdrs)+len(r.chunk))*int(distHeaderSize)
}
