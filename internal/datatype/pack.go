package datatype

import (
	"fmt"

	"mv2sim/internal/mem"
)

// mustCommitted panics on use of an uncommitted type in a communication
// path — the same contract violation MPI reports as MPI_ERR_TYPE.
func (t *Datatype) mustCommitted() {
	if !t.committed {
		panic("datatype: " + t.name + " used before Commit")
	}
}

// Pack gathers count elements described by t from the typed buffer at src
// into the contiguous destination dst. dst must have room for
// count*Size() bytes. Only bytes move; timing is modeled elsewhere.
func (t *Datatype) Pack(dst, src mem.Ptr, count int) {
	t.mustCommitted()
	if n := count * t.size; n > 0 {
		t.walk(dst.Bytes(n), src, 0, true)
	}
}

// Unpack scatters count elements from the contiguous source src into the
// typed buffer at dst — the inverse of Pack.
func (t *Datatype) Unpack(dst, src mem.Ptr, count int) {
	t.mustCommitted()
	if n := count * t.size; n > 0 {
		t.walk(src.Bytes(n), dst, 0, false)
	}
}

// PackBytes gathers count elements from the typed buffer at src into the
// plain byte slice dst, which must hold count*Size() bytes. It is used to
// build eager-protocol payloads that live outside any simulated address
// space.
func (t *Datatype) PackBytes(dst []byte, src mem.Ptr, count int) {
	t.mustCommitted()
	n := count * t.size
	if len(dst) < n {
		panic(fmt.Sprintf("datatype: PackBytes destination too small (%d < %d)", len(dst), n))
	}
	if n > 0 {
		t.walk(dst[:n], src, 0, true)
	}
}

// UnpackBytes scatters the packed byte slice src into the typed buffer at
// dst — the inverse of PackBytes.
func (t *Datatype) UnpackBytes(dst mem.Ptr, src []byte, count int) {
	t.mustCommitted()
	n := count * t.size
	if len(src) < n {
		panic(fmt.Sprintf("datatype: UnpackBytes source too small (%d < %d)", len(src), n))
	}
	if n > 0 {
		t.walk(src[:n], dst, 0, false)
	}
}

// PackRange gathers the byte range [packOff, packOff+n) of the packed
// representation of count elements into dst. It is the partial-pack
// primitive that lets the pipeline process a large non-contiguous message
// chunk by chunk without materializing the whole packed buffer.
func (t *Datatype) PackRange(dst, src mem.Ptr, count, packOff, n int) {
	t.copyRange(dst, src, count, packOff, n, true)
}

// UnpackRange scatters the byte range [packOff, packOff+n) of the packed
// stream from src into the typed buffer at dst — the inverse of PackRange.
func (t *Datatype) UnpackRange(dst, src mem.Ptr, count, packOff, n int) {
	t.copyRange(src, dst, count, packOff, n, false)
}

func (t *Datatype) copyRange(packed, typed mem.Ptr, count, packOff, n int, packing bool) {
	t.mustCommitted()
	if n == 0 {
		return
	}
	total := count * t.size
	if packOff < 0 || n < 0 || packOff+n > total {
		panic(fmt.Sprintf("datatype: range [%d,%d) outside packed size %d", packOff, packOff+n, total))
	}
	t.walk(packed.Bytes(n), typed, packOff, packing)
}

// walk moves packed bytes [packOff, packOff+len(pv)) of consecutive
// elements between pv and the typed buffer at typed, gathering into pv
// when packing. It takes one bounds-checked view of the typed elements
// the range touches and strides over it run by run.
func (t *Datatype) walk(pv []byte, typed mem.Ptr, packOff int, packing bool) {
	n := len(pv)
	if t.IsContiguous() {
		tv := typed.Add(packOff).Bytes(n)
		if packing {
			copy(pv, tv)
		} else {
			copy(tv, pv)
		}
		mem.Strided(typed, 1, n)
		return
	}
	ext := t.Extent()
	lo := t.trueLB + packOff/t.size*ext
	hi := t.trueUB + (packOff+n-1)/t.size*ext
	tv := typed.Add(lo).Bytes(hi - lo)
	p, pieces := 0, 0
	t.clip(packOff, n, func(off, l, stride, k int) {
		moveRun(pv[p:], tv, off-lo, l, stride, k, packing)
		p += k * l
		pieces += k
	})
	mem.Strided(typed, pieces, n)
}

// Shape2D describes a uniform strided layout equivalent to the type map of
// `count` elements: Rows rows of Width bytes, Pitch bytes apart. It is
// exactly the geometry cudaMemcpy2D accepts, so any type with a Shape2D
// can be packed by the GPU's copy engine in one operation — the offload
// the paper builds on.
type Shape2D struct {
	Off   int // byte offset of the first row from the buffer base
	Width int // bytes per row
	Pitch int // bytes between row starts
	Rows  int
}

// Uniform2D reports whether count elements of t form a uniform 2D shape,
// and returns it. Vectors of fixed-size blocks qualify; indexed or struct
// types with irregular gaps do not. A fully contiguous region qualifies
// with Rows == 1.
//
// The answer is computed in O(1) from the run form: an element is a
// uniform grid exactly when it is one run (the coalescer's canonical
// form), so no segment list is materialized and calling this per message
// (as the transport's planFor does) allocates nothing.
func (t *Datatype) Uniform2D(count int) (Shape2D, bool) {
	t.mustCommitted()
	if count <= 0 || len(t.runs) != 1 {
		return Shape2D{}, false
	}
	r := t.runs[0]
	if r.n == 1 {
		if count == 1 {
			return Shape2D{Off: r.off, Width: r.len, Pitch: r.len, Rows: 1}, true
		}
		switch ext := t.Extent(); {
		case r.len == ext:
			// Consecutive elements butt together: one contiguous run.
			return Shape2D{Off: r.off, Width: count * r.len, Pitch: count * r.len, Rows: 1}, true
		case r.len < ext:
			// One row per element, extent apart.
			return Shape2D{Off: r.off, Width: r.len, Pitch: ext, Rows: count}, true
		default:
			// Extent shrunk below the data span (Resized): rows overlap.
			return Shape2D{}, false
		}
	}
	if r.stride <= r.len {
		// Descending rows are no pitch a 2D copy accepts.
		return Shape2D{}, false
	}
	if count == 1 {
		return Shape2D{Off: r.off, Width: r.len, Pitch: r.stride, Rows: r.n}, true
	}
	// Across elements the grid continues only if the gap from the last row
	// of one element to the first row of the next equals the row pitch.
	if t.Extent()+r.off-r.last() != r.stride {
		return Shape2D{}, false
	}
	return Shape2D{Off: r.off, Width: r.len, Pitch: r.stride, Rows: count * r.n}, true
}
