// Package datatype implements an MPI derived-datatype engine that operates
// on real bytes: type construction (contiguous, vector, hvector, indexed,
// hindexed, struct, subarray, resized) straight into a run-length type
// map, full and partial pack/unpack, and shape analysis used by the GPU
// path to offload packing onto 2D copy engines.
//
// Semantics follow MPI-1.1/2.2: a datatype is a type map — a sequence of
// (displacement, basic type) pairs. Size is the number of real data bytes;
// extent is ub−lb, the stride applied between consecutive elements when
// count > 1. Lower bounds may be negative (as with MPI_Type_create_struct);
// callers must then point base past the front of their buffer, exactly as
// in MPI.
package datatype

import (
	"errors"
	"fmt"
)

// Kind identifies the constructor that built a type.
type Kind uint8

const (
	KindPredefined Kind = iota
	KindContiguous
	KindVector
	KindHvector
	KindIndexed
	KindHindexed
	KindStruct
	KindSubarray
	KindResized
)

func (k Kind) String() string {
	switch k {
	case KindPredefined:
		return "predefined"
	case KindContiguous:
		return "contiguous"
	case KindVector:
		return "vector"
	case KindHvector:
		return "hvector"
	case KindIndexed:
		return "indexed"
	case KindHindexed:
		return "hindexed"
	case KindStruct:
		return "struct"
	case KindSubarray:
		return "subarray"
	case KindResized:
		return "resized"
	default:
		return fmt.Sprintf("Kind(%d)", k)
	}
}

// Segment is one contiguous piece of a flattened type: Len bytes at byte
// displacement Off from the buffer base.
type Segment struct {
	Off int
	Len int
}

// Datatype is an immutable (after Commit) MPI datatype.
type Datatype struct {
	name string
	kind Kind
	size int // true data bytes per element
	lb   int // lowest displacement touched (or set by Resized)
	ub   int // highest displacement+len touched (or set by Resized)

	committed bool
	// runs is the type map of ONE element in canonical run form (see
	// coalescer): pieces in type-map order, adjacent ones coalesced, each
	// run's pack field its offset in the element's packed stream.
	runs   []run
	pieces int // segments per element: the sum of the runs' n
	trueLB int // data hull of one element, unaffected by Resized
	trueUB int

	planCache // lazily built per-(count, chunkBytes) chunk plans
}

// Predefined basic types.
var (
	Byte    = predefined("MPI_BYTE", 1)
	Char    = predefined("MPI_CHAR", 1)
	Int32   = predefined("MPI_INT", 4)
	Int64   = predefined("MPI_LONG_LONG", 8)
	Float32 = predefined("MPI_FLOAT", 4)
	Float64 = predefined("MPI_DOUBLE", 8)
)

func predefined(name string, size int) *Datatype {
	t := &Datatype{name: name, kind: KindPredefined, size: size, lb: 0, ub: size}
	t.setRuns([]run{{len: size, n: 1}})
	t.committed = true
	return t
}

// setRuns installs the element's run list and the summaries derived from
// it.
func (t *Datatype) setRuns(runs []run) {
	t.runs = runs
	t.pieces = 0
	for _, r := range runs {
		t.pieces += r.n
	}
	t.trueLB, t.trueUB = runsHull(runs)
}

// Name returns a human-readable type name.
func (t *Datatype) Name() string { return t.name }

// Kind returns the constructor kind.
func (t *Datatype) Kind() Kind { return t.kind }

// Size returns the number of true data bytes in one element, like
// MPI_Type_size.
func (t *Datatype) Size() int { return t.size }

// Extent returns ub−lb, the element-to-element stride, like
// MPI_Type_get_extent.
func (t *Datatype) Extent() int { return t.ub - t.lb }

// LB and UB return the type bounds.
func (t *Datatype) LB() int { return t.lb }
func (t *Datatype) UB() int { return t.ub }

// Committed reports whether Commit has run.
func (t *Datatype) Committed() bool { return t.committed }

// String renders a short description.
func (t *Datatype) String() string {
	return fmt.Sprintf("%s(%s size=%d extent=%d)", t.name, t.kind, t.size, t.Extent())
}

var errUncommitted = errors.New("datatype: base type must be committed")

func checkBase(base *Datatype) error {
	if base == nil {
		return errors.New("datatype: nil base type")
	}
	if !base.committed {
		return errUncommitted
	}
	return nil
}

// Contiguous builds count consecutive copies of base
// (MPI_Type_contiguous).
func Contiguous(count int, base *Datatype) (*Datatype, error) {
	if err := checkBase(base); err != nil {
		return nil, err
	}
	if count < 0 {
		return nil, fmt.Errorf("datatype: negative count %d", count)
	}
	t := &Datatype{
		name: fmt.Sprintf("contig(%d,%s)", count, base.name),
		kind: KindContiguous,
		size: count * base.size,
	}
	t.strided(1, count, 0, base)
	return t, nil
}

// Vector builds count blocks of blocklen base elements, with the starts of
// consecutive blocks stride base-extents apart (MPI_Type_vector).
func Vector(count, blocklen, stride int, base *Datatype) (*Datatype, error) {
	if err := checkBase(base); err != nil {
		return nil, err
	}
	if count < 0 || blocklen < 0 {
		return nil, fmt.Errorf("datatype: negative vector dimensions (%d,%d)", count, blocklen)
	}
	t := &Datatype{
		name: fmt.Sprintf("vector(%d,%d,%d,%s)", count, blocklen, stride, base.name),
		kind: KindVector,
		size: count * blocklen * base.size,
	}
	t.strided(count, blocklen, stride*base.Extent(), base)
	return t, nil
}

// Hvector is Vector with the stride given in bytes
// (MPI_Type_create_hvector).
func Hvector(count, blocklen, strideBytes int, base *Datatype) (*Datatype, error) {
	if err := checkBase(base); err != nil {
		return nil, err
	}
	if count < 0 || blocklen < 0 {
		return nil, fmt.Errorf("datatype: negative hvector dimensions (%d,%d)", count, blocklen)
	}
	t := &Datatype{
		name: fmt.Sprintf("hvector(%d,%d,%dB,%s)", count, blocklen, strideBytes, base.name),
		kind: KindHvector,
		size: count * blocklen * base.size,
	}
	t.strided(count, blocklen, strideBytes, base)
	return t, nil
}

// strided sets t's type map and bounds to count blocks of blocklen base
// elements, block starts strideBytes apart. A block of one-run bases is
// one run and the blocks repeat it analytically, so a vector costs O(1)
// however many rows it has.
func (t *Datatype) strided(count, blocklen, strideBytes int, base *Datatype) {
	var blk, c coalescer
	blk.repeat(0, base.runs, blocklen, base.Extent())
	c.repeat(0, blk.runs, count, strideBytes)
	t.setRuns(c.runs)
	// Block offsets are linear in the block index, so the first and last
	// blocks bound them all.
	var h bounds
	if count > 0 {
		h.block(0, blocklen, base)
		h.block((count-1)*strideBytes, blocklen, base)
	}
	t.lb, t.ub = h.lb, h.ub
}

// Indexed builds blocks of blocklens[i] base elements at displacements
// displs[i] measured in base extents (MPI_Type_indexed).
func Indexed(blocklens, displs []int, base *Datatype) (*Datatype, error) {
	if err := checkBase(base); err != nil {
		return nil, err
	}
	if len(blocklens) != len(displs) {
		return nil, fmt.Errorf("datatype: indexed lengths mismatch (%d vs %d)", len(blocklens), len(displs))
	}
	byteDispls := make([]int, len(displs))
	for i, d := range displs {
		byteDispls[i] = d * base.Extent()
	}
	t, err := hindexed(blocklens, byteDispls, base)
	if err != nil {
		return nil, err
	}
	t.kind = KindIndexed
	t.name = fmt.Sprintf("indexed(%d blocks,%s)", len(blocklens), base.name)
	return t, nil
}

// Hindexed is Indexed with displacements in bytes
// (MPI_Type_create_hindexed).
func Hindexed(blocklens, byteDispls []int, base *Datatype) (*Datatype, error) {
	if err := checkBase(base); err != nil {
		return nil, err
	}
	if len(blocklens) != len(byteDispls) {
		return nil, fmt.Errorf("datatype: hindexed lengths mismatch (%d vs %d)", len(blocklens), len(byteDispls))
	}
	t, err := hindexed(blocklens, byteDispls, base)
	if err != nil {
		return nil, err
	}
	t.name = fmt.Sprintf("hindexed(%d blocks,%s)", len(blocklens), base.name)
	return t, nil
}

func hindexed(blocklens, byteDispls []int, base *Datatype) (*Datatype, error) {
	types := make([]*Datatype, len(blocklens))
	for i := range types {
		types[i] = base
	}
	t, err := blocks(blocklens, byteDispls, types)
	if err != nil {
		return nil, err
	}
	t.kind = KindHindexed
	return t, nil
}

// Struct builds a heterogeneous sequence: blocklens[i] elements of
// types[i] at byte displacement byteDispls[i] (MPI_Type_create_struct).
func Struct(blocklens, byteDispls []int, types []*Datatype) (*Datatype, error) {
	if len(blocklens) != len(byteDispls) || len(blocklens) != len(types) {
		return nil, errors.New("datatype: struct argument lengths mismatch")
	}
	for _, ty := range types {
		if err := checkBase(ty); err != nil {
			return nil, err
		}
	}
	t, err := blocks(blocklens, byteDispls, types)
	if err != nil {
		return nil, err
	}
	t.name = fmt.Sprintf("struct(%d members)", len(blocklens))
	t.kind = KindStruct
	return t, nil
}

// blocks builds the type of blocklens[i] elements of types[i] at byte
// displacement byteDispls[i], in order.
func blocks(blocklens, byteDispls []int, types []*Datatype) (*Datatype, error) {
	var c coalescer
	var h bounds
	size := 0
	for i, bl := range blocklens {
		if bl < 0 {
			return nil, fmt.Errorf("datatype: negative block length %d", bl)
		}
		c.repeat(byteDispls[i], types[i].runs, bl, types[i].Extent())
		h.block(byteDispls[i], bl, types[i])
		size += bl * types[i].size
	}
	t := &Datatype{size: size, lb: h.lb, ub: h.ub}
	t.setRuns(c.runs)
	return t, nil
}

// Order selects array storage order for Subarray.
type Order uint8

const (
	// RowMajor is C order: the last dimension is contiguous.
	RowMajor Order = iota
	// ColMajor is Fortran order: the first dimension is contiguous.
	ColMajor
)

// Subarray selects a subsizes-shaped region starting at starts within a
// sizes-shaped array of base elements (MPI_Type_create_subarray).
func Subarray(sizes, subsizes, starts []int, order Order, base *Datatype) (*Datatype, error) {
	if err := checkBase(base); err != nil {
		return nil, err
	}
	n := len(sizes)
	if n == 0 || len(subsizes) != n || len(starts) != n {
		return nil, errors.New("datatype: subarray dimension mismatch")
	}
	for d := 0; d < n; d++ {
		if sizes[d] <= 0 || subsizes[d] <= 0 || starts[d] < 0 || starts[d]+subsizes[d] > sizes[d] {
			return nil, fmt.Errorf("datatype: subarray dim %d out of range (size=%d sub=%d start=%d)",
				d, sizes[d], subsizes[d], starts[d])
		}
	}
	// Normalize to row-major by reversing dimension order for ColMajor.
	sz, sub, st := sizes, subsizes, starts
	if order == ColMajor {
		sz, sub, st = reverse(sizes), reverse(subsizes), reverse(starts)
	}
	// Build from the innermost dimension out: a row of sub[n-1] base
	// elements, then each outer dimension repeats the one inside it at its
	// row-major stride. Uniform faces stay one run.
	ext := base.Extent()
	var row coalescer
	row.repeat(0, base.runs, sub[n-1], ext)
	runs := row.runs
	stride, off := ext, st[n-1]*ext
	for d := n - 2; d >= 0; d-- {
		stride *= sz[d+1]
		var c coalescer
		c.repeat(0, runs, sub[d], stride)
		runs = c.runs
		off += st[d] * stride
	}
	for i := range runs {
		runs[i].off += off
	}
	size := base.size
	for d := 0; d < n; d++ {
		size *= subsizes[d]
	}
	t := &Datatype{
		name: fmt.Sprintf("subarray(%dd,%s)", n, base.name),
		kind: KindSubarray,
		size: size,
	}
	t.setRuns(runs)
	// Subarray extent spans the whole array, per the MPI standard.
	t.lb = 0
	t.ub = stride * sz[0]
	return t, nil
}

func reverse(a []int) []int {
	out := make([]int, len(a))
	for i, v := range a {
		out[len(a)-1-i] = v
	}
	return out
}

// Resized overrides a type's lower bound and extent
// (MPI_Type_create_resized). The type map is unchanged.
func Resized(base *Datatype, lb, extent int) (*Datatype, error) {
	if err := checkBase(base); err != nil {
		return nil, err
	}
	if extent < 0 {
		return nil, fmt.Errorf("datatype: negative extent %d", extent)
	}
	t := &Datatype{
		name: fmt.Sprintf("resized(%s,lb=%d,ext=%d)", base.name, lb, extent),
		kind: KindResized,
		size: base.size,
		lb:   lb,
		ub:   lb + extent,
	}
	t.setRuns(base.runs) // run lists are never mutated once built
	return t, nil
}

// Commit finalizes the type for communication (MPI_Type_commit): it
// rejects ambiguous (self-overlapping) type maps. Committing twice is a
// no-op.
func (t *Datatype) Commit() error {
	if t.committed {
		return nil
	}
	if overlaps(t.runs) {
		return fmt.Errorf("datatype: %s has overlapping segments; packing would be ambiguous", t.name)
	}
	sum := 0
	for _, r := range t.runs {
		sum += r.n * r.len
	}
	if sum != t.size {
		return fmt.Errorf("datatype: internal error: type map covers %d bytes, size is %d", sum, t.size)
	}
	t.committed = true
	return nil
}

// MustCommit commits or panics; for statically correct test/benchmark
// types.
func (t *Datatype) MustCommit() *Datatype {
	if err := t.Commit(); err != nil {
		panic(err)
	}
	return t
}

// IOV expands the type map of one element into one segment per
// contiguous piece, in type-map order. It allocates a fresh slice per
// call; it is meant for tests and introspection, not hot paths.
func (t *Datatype) IOV() []Segment { return appendSegments(nil, t.runs, 0) }

// IsContiguous reports whether count elements of t occupy one gap-free
// byte range starting at displacement 0 — the layout for which pack and
// unpack degenerate to a single memcpy.
func (t *Datatype) IsContiguous() bool {
	if len(t.runs) == 0 {
		return true
	}
	r := t.runs[0]
	return len(t.runs) == 1 && r.n == 1 && r.off == 0 && r.len == t.size && t.size == t.Extent()
}

// SegmentCount returns count times the number of contiguous pieces in one
// element, or 1 for a contiguous type. Pieces that abut across an element
// boundary are counted once per element, so for such a type this exceeds
// len(SegmentsOf(count)). It is the per-segment cost driver for host
// packing models.
func (t *Datatype) SegmentCount(count int) int {
	if count <= 0 {
		return 0
	}
	if t.IsContiguous() {
		return 1
	}
	return count * t.pieces
}

// SegmentsOf returns the absolute segments of `count` elements: element i
// contributes its IOV shifted by i*Extent(), and pieces that abut across
// elements coalesce. Like IOV it expands on demand.
func (t *Datatype) SegmentsOf(count int) []Segment {
	var c coalescer
	c.repeat(0, t.runs, count, t.Extent())
	return appendSegments(nil, c.runs, 0)
}

// Span returns the number of buffer bytes touched by count elements,
// measured from base+lb: (count-1)*extent + (ub-lb) for count > 0.
func (t *Datatype) Span(count int) int {
	if count <= 0 {
		return 0
	}
	return (count-1)*t.Extent() + (t.ub - t.lb)
}
