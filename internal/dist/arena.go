package dist

import "unsafe"

// distHeaderSize is the in-memory size of one Dist header, used only
// for footprint accounting.
const distHeaderSize = unsafe.Sizeof(Dist{})

// Arena is reusable scratch memory for the Into-form kernels: mass
// vectors come from append-only float slabs, headers from fixed-size
// Dist chunks, and Reset rewinds both cursors without releasing
// anything — so a steady-state workload (one arena per worker, Reset
// between units of work) performs zero allocations once the arena has
// grown to the workload's peak working set.
//
// Ownership rules (see DESIGN.md, "Memory model"):
//
//   - Every *Dist returned by an Into kernel called with an arena is a
//     view into that arena and is invalidated by the arena's next
//     Reset. Persist it (an Owned) before storing it anywhere that
//     outlives the reset; the retained slots are typed Owned, so a
//     raw view does not fit them.
//   - An arena serves exactly one goroutine at a time. Parallel paths
//     hold one arena per worker, as par.Pool worker state; nothing in
//     an Arena is synchronized.
//   - Resetting is the caller's job, at whatever granularity bounds the
//     live scratch set: per node for the kernel arena of every pass,
//     per candidate for the arena that holds a propagation's surviving
//     overlay arrivals (see Copy).
type Arena struct {
	slabs [][]float64
	slab  int // index of the slab currently being carved
	off   int // floats consumed from slabs[slab]

	hchunks [][]Dist
	nh      int // headers handed out since the last Reset
}

// arenaMinSlab is the float count of the first slab (32 KiB); each
// further slab doubles, so an arena reaches any peak working set in
// O(log n) allocations and then never allocates again.
const arenaMinSlab = 4 << 10

// arenaHdrChunk is the Dist-header count per chunk. Chunks are never
// reallocated or copied (headers hold an atomic field and outstanding
// views point into them), only appended.
const arenaHdrChunk = 64

// NewArena returns an empty arena; memory is acquired lazily as the
// kernels ask for it.
func NewArena() *Arena { return &Arena{} }

// Reset rewinds the arena, invalidating every scratch view handed out
// since the previous Reset while retaining all capacity for reuse.
func (ar *Arena) Reset() {
	ar.slab, ar.off, ar.nh = 0, 0, 0
}

// carve hands out an n-float slice of the arena whose contents are
// left over from before the last Reset — for kernels that write every
// element before reading any.
func (ar *Arena) carve(n int) []float64 {
	for {
		if ar.slab < len(ar.slabs) {
			slab := ar.slabs[ar.slab]
			if ar.off+n <= len(slab) {
				s := slab[ar.off : ar.off+n : ar.off+n]
				ar.off += n
				return s
			}
			// The remainder of this slab is too small; leave it and move
			// on (the waste is bounded by one request per slab).
			ar.slab++
			ar.off = 0
			continue
		}
		size := arenaMinSlab
		if k := len(ar.slabs); k > 0 {
			size = 2 * len(ar.slabs[k-1])
		}
		if size < n {
			size = n
		}
		ar.slabs = append(ar.slabs, make([]float64, size))
	}
}

// newDist hands out a scratch header viewing p. Reused headers are
// set field by field (a Dist holds an atomic and must not be copied
// wholesale); a scratch header's cumulative-sum cache is never filled,
// so there is none to clear.
func (ar *Arena) newDist(dt float64, i0 int, p []float64) *Dist {
	ci, ii := ar.nh/arenaHdrChunk, ar.nh%arenaHdrChunk
	if ci == len(ar.hchunks) {
		ar.hchunks = append(ar.hchunks, make([]Dist, arenaHdrChunk))
	}
	ar.nh++
	h := &ar.hchunks[ci][ii]
	h.dt, h.i0, h.p, h.scratch = dt, i0, p, true
	return h
}

// Copy returns a copy of d in ar when d is scratch (a view of any arena
// or a recycled value), or d itself when it is nil or an ordinary
// immutable value. The copy is bit-identical and is a scratch view of
// ar, valid until ar's next Reset. It lets a result outlive the Reset
// of the arena its kernels ran in: a propagation rewinds its kernel
// arena per node and copies each node's surviving arrival into a
// second arena that lives as long as the candidate.
func (ar *Arena) Copy(d *Dist) *Dist {
	if d == nil || !d.scratch {
		return d
	}
	p := ar.carve(len(d.p))
	copy(p, d.p)
	return ar.newDist(d.dt, d.i0, p)
}

// keeperSlab is the float capacity of one Keeper slab and
// keeperHdrChunk the headers per chunk — sized so a full-circuit pass
// retains its arrivals with a couple dozen allocations instead of two
// per node.
const (
	keeperSlab     = 16 << 10
	keeperHdrChunk = 64
)

// Keeper compacts scratch views into immutable heap distributions in
// bulk: mass vectors pack into shared append-only slabs, headers into
// chunks, so persisting N distributions costs O(N/chunk) allocations
// instead of 2·N. Unlike an Arena a Keeper never recycles memory — a
// distribution carved from it is immutable forever, and its slab lives
// exactly as long as any distribution carved from that slab. Keepers
// are therefore pass-scoped: one forward or backward pass, then Reset
// (or dropped); carving a second pass from the same slabs would chain
// the first pass's memory lifetime to the second's.
//
// A Keeper serves one goroutine; parallel passes hold one per worker.
type Keeper struct {
	slab []float64 // remaining tail of the current slab
	hdrs []Dist    // remaining tail of the current header chunk
}

// NewKeeper returns an empty keeper; slabs are acquired as needed.
func NewKeeper() *Keeper { return &Keeper{} }

// Reset marks a pass boundary, readying the keeper for reuse. It
// forgets the current slab and header tails — it does NOT recycle them,
// so every distribution persisted before the Reset stays valid forever
// — and thereby cuts the memory-lifetime link between passes: once the
// previous pass's distributions die, their slabs go with them, even
// while the keeper lives on persisting the next pass.
func (k *Keeper) Reset() {
	k.slab = nil
	k.hdrs = nil
}

// Persist returns d unchanged when it is already an immutable heap
// value, or a compact keeper-backed copy when it is arena scratch —
// same contract as Dist.Persist, amortized.
func (k *Keeper) Persist(d *Dist) Owned {
	if !d.scratch {
		return Owned{d}
	}
	n := len(d.p)
	if n > len(k.slab) {
		size := keeperSlab
		if size < n {
			size = n
		}
		k.slab = make([]float64, size)
	}
	p := k.slab[:n:n]
	k.slab = k.slab[n:]
	copy(p, d.p)
	if len(k.hdrs) == 0 {
		k.hdrs = make([]Dist, keeperHdrChunk)
	}
	h := &k.hdrs[0]
	k.hdrs = k.hdrs[1:]
	h.dt, h.i0, h.p = d.dt, d.i0, p
	return Owned{h}
}

// overwrittenFloats routes a mass-vector request to the arena, or to
// the heap when ar is nil (the allocating wrappers' path). Arena memory
// is not cleared, so the kernel writes every element before reading it.
func overwrittenFloats(ar *Arena, n int) []float64 {
	if ar == nil {
		return make([]float64, n)
	}
	return ar.carve(n)
}

// FootprintBytes reports the total memory the arena retains across
// resets — slabs plus header chunks — for tests and capacity planning.
func (ar *Arena) FootprintBytes() int {
	n := 0
	for _, s := range ar.slabs {
		n += 8 * len(s)
	}
	for _, c := range ar.hchunks {
		n += len(c) * int(distHeaderSize)
	}
	return n
}
