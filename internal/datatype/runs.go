// Run-length type maps. A type's element is a short list of strided runs:
// a vector of a million rows is one run, so construction, commit, chunk
// planning and shape analysis cost O(runs), and byte walks stride over
// one slice view per side — the canonical strided representation of
// TEMPI (arXiv:2012.14363).
package datatype

import "sort"

// run is n pieces of len bytes: piece i sits at typed displacement
// off+i*stride and at packed offset pack+i*len. For n == 1 the stride is
// meaningless.
type run struct {
	off, len, stride, n int
	pack                int
}

// last returns the typed displacement of the run's final piece.
func (r run) last() int { return r.off + (r.n-1)*r.stride }

// hull returns the lowest and one-past-highest displacement r touches.
func (r run) hull() (lo, hi int) {
	lo, hi = r.off, r.last()
	if hi < lo {
		lo, hi = hi, lo
	}
	return lo, hi + r.len
}

// runsHull returns the displacement window [lo, hi) the runs touch; an
// empty list gives (0, 0).
func runsHull(runs []run) (lo, hi int) {
	for i, r := range runs {
		l, h := r.hull()
		if i == 0 || l < lo {
			lo = l
		}
		if i == 0 || h > hi {
			hi = h
		}
	}
	return lo, hi
}

// coalescer appends pieces in type-map order and keeps them in canonical
// run form. A piece that starts where the previous piece ends extends it
// (adjacent-segment coalescing, the same merge a flattened I/O vector
// applies); a piece as long as the previous run's pieces and one stride
// past its last piece joins that run. The result is the greedy run
// encoding of the coalesced segment list, so one segment list always
// yields one run list, and a uniform row grid is exactly one run.
type coalescer struct {
	runs  []run
	floor int // runs[:floor] are sealed: later pieces never join them
	size  int // packed bytes appended so far
}

// seal closes the runs appended so far. Chunk plans seal at every chunk
// boundary so no piece straddles one.
func (c *coalescer) seal() { c.floor = len(c.runs) }

// open returns the last run if later pieces may still join it.
func (c *coalescer) open() *run {
	if k := len(c.runs) - 1; k >= c.floor {
		return &c.runs[k]
	}
	return nil
}

// add appends n pieces of l bytes, piece i at displacement off+i*stride.
func (c *coalescer) add(off, l, stride, n int) {
	if n <= 0 || l == 0 {
		return
	}
	if n > 1 && stride == l {
		l, n = n*l, 1 // the pieces abut: one segment
	}
	c.piece(off, l)
	if n == 1 {
		return
	}
	// The rest cannot abut their predecessors (stride != l). They extend
	// the run now holding the first piece when it has their length and
	// their stride; otherwise they start a run of their own.
	if r := c.open(); r.len == l && (r.n == 1 || r.stride == stride) {
		r.stride = stride
		r.n += n - 1
	} else {
		c.runs = append(c.runs, run{off: off + stride, len: l, stride: stride, n: n - 1, pack: c.size})
	}
	c.size += (n - 1) * l
}

// piece appends one segment, merging it into the previous piece when the
// two abut.
func (c *coalescer) piece(off, l int) {
	if r := c.open(); r != nil && r.last()+r.len == off {
		// Take the previous piece out of its run and re-append it longer:
		// grown, it may now extend the run before it instead.
		off = r.last()
		l += r.len
		c.size -= r.len
		if r.n--; r.n == 0 {
			c.runs = c.runs[:len(c.runs)-1]
		}
	}
	c.push(off, l)
}

// push appends one segment that does not abut the previous piece.
func (c *coalescer) push(off, l int) {
	if r := c.open(); r != nil && r.len == l {
		switch {
		case r.n == 1:
			r.stride, r.n = off-r.off, 2
			c.size += l
			return
		case off == r.off+r.n*r.stride:
			r.n++
			c.size += l
			return
		}
	}
	c.runs = append(c.runs, run{off: off, len: l, n: 1, pack: c.size})
	c.size += l
}

// repeat appends count copies of runs, copy i shifted by off+i*stride.
// Copies of a single run that continue its grid, or that are one piece
// each, append in O(1); anything else costs O(count × len(runs)).
func (c *coalescer) repeat(off int, runs []run, count, stride int) {
	if count <= 0 || len(runs) == 0 {
		return
	}
	if r := runs[0]; len(runs) == 1 {
		switch {
		case count == 1:
			c.add(off+r.off, r.len, r.stride, r.n)
			return
		case r.n == 1:
			c.add(off+r.off, r.len, stride, count)
			return
		case stride == r.n*r.stride:
			c.add(off+r.off, r.len, r.stride, r.n*count)
			return
		}
	}
	for i := 0; i < count; i++ {
		for _, r := range runs {
			c.add(off+i*stride+r.off, r.len, r.stride, r.n)
		}
	}
}

// bounds accumulates the lb/ub envelope of blocks of base elements,
// honoring each base's own (possibly Resized) bounds.
type bounds struct {
	lb, ub int
	set    bool
}

// block widens the envelope by count base elements starting at byte
// offset off, laid out by base extent.
func (h *bounds) block(off, count int, base *Datatype) {
	if count == 0 {
		return
	}
	lo := off + base.lb
	hi := off + (count-1)*base.Extent() + base.ub
	if !h.set || lo < h.lb {
		h.lb = lo
	}
	if !h.set || hi > h.ub {
		h.ub = hi
	}
	h.set = true
}

// overlaps reports whether any two pieces of runs overlap. A run overlaps
// itself when its pieces are closer than their length. Runs whose hulls
// are disjoint cannot overlap each other, so only clusters of runs with
// intersecting hulls (interleaved layouts) are expanded and sorted.
func overlaps(runs []run) bool {
	for _, r := range runs {
		if r.n > 1 && (r.stride < r.len && -r.stride < r.len) {
			return true
		}
	}
	if len(runs) < 2 {
		return false
	}
	byLo := append([]run(nil), runs...)
	sort.Slice(byLo, func(i, j int) bool {
		a, _ := byLo[i].hull()
		b, _ := byLo[j].hull()
		return a < b
	})
	for i := 0; i < len(byLo); {
		_, hi := byLo[i].hull()
		j := i + 1
		for ; j < len(byLo); j++ {
			lo, h := byLo[j].hull()
			if lo >= hi {
				break
			}
			hi = max(hi, h)
		}
		if j-i > 1 && segmentsOverlap(appendSegments(nil, byLo[i:j], 0)) {
			return true
		}
		i = j
	}
	return false
}

// segmentsOverlap sorts segs by offset and reports whether any two overlap.
func segmentsOverlap(segs []Segment) bool {
	sort.Slice(segs, func(i, j int) bool { return segs[i].Off < segs[j].Off })
	for i := 1; i < len(segs); i++ {
		if segs[i].Off < segs[i-1].Off+segs[i-1].Len {
			return true
		}
	}
	return false
}

// appendSegments expands runs, shifted by shift bytes, into one segment
// per piece.
func appendSegments(dst []Segment, runs []run, shift int) []Segment {
	for _, r := range runs {
		for i := 0; i < r.n; i++ {
			dst = append(dst, Segment{shift + r.off + i*r.stride, r.len})
		}
	}
	return dst
}

// runAt returns the index of the run holding packed byte rem of one
// element.
func (t *Datatype) runAt(rem int) int {
	return sort.Search(len(t.runs), func(i int) bool { return t.runs[i].pack > rem }) - 1
}

// clip calls emit for the pieces of packed bytes [packOff, packOff+n) of
// consecutive elements, in stream order: emit(off, l, stride, k) stands
// for k pieces of l bytes at typed displacement off+i*stride. Pieces cut
// by either end of the range come out as single shortened pieces.
func (t *Datatype) clip(packOff, n int, emit func(off, l, stride, k int)) {
	if n <= 0 {
		return
	}
	ext := t.Extent()
	e, rem := packOff/t.size, packOff%t.size
	j := t.runAt(rem)
	for n > 0 {
		r := &t.runs[j]
		i, o := (rem-r.pack)/r.len, (rem-r.pack)%r.len
		at := e*ext + r.off + i*r.stride
		if o > 0 || n < r.len {
			l := min(r.len-o, n)
			emit(at+o, l, 0, 1)
			n -= l
			rem += l
		} else {
			k := min(r.n-i, n/r.len)
			emit(at, r.len, r.stride, k)
			n -= k * r.len
			rem += k * r.len
		}
		if rem == r.pack+r.n*r.len {
			if j++; j == len(t.runs) {
				j, e, rem = 0, e+1, 0
			}
		}
	}
}

// moveRun copies k pieces of l bytes between the packed view pv, where
// they lie back to back from pv[0], and the typed view tv, where piece i
// starts at tv[t0+i*stride]. packing gathers into pv; otherwise it
// scatters from pv. Row widths of 4 and 8 bytes — one float or double —
// move as fixed-size arrays, without a memmove call per piece.
func moveRun(pv, tv []byte, t0, l, stride, k int, packing bool) {
	p := 0
	switch {
	case l == 4 && packing:
		for ; k > 0; k-- {
			*(*[4]byte)(pv[p:]) = *(*[4]byte)(tv[t0:])
			p, t0 = p+4, t0+stride
		}
	case l == 4:
		for ; k > 0; k-- {
			*(*[4]byte)(tv[t0:]) = *(*[4]byte)(pv[p:])
			p, t0 = p+4, t0+stride
		}
	case l == 8 && packing:
		for ; k > 0; k-- {
			*(*[8]byte)(pv[p:]) = *(*[8]byte)(tv[t0:])
			p, t0 = p+8, t0+stride
		}
	case l == 8:
		for ; k > 0; k-- {
			*(*[8]byte)(tv[t0:]) = *(*[8]byte)(pv[p:])
			p, t0 = p+8, t0+stride
		}
	case packing:
		for ; k > 0; k-- {
			copy(pv[p:p+l], tv[t0:t0+l])
			p, t0 = p+l, t0+stride
		}
	default:
		for ; k > 0; k-- {
			copy(tv[t0:t0+l], pv[p:p+l])
			p, t0 = p+l, t0+stride
		}
	}
}
