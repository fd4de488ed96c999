package datatype

import "fmt"

// Distribution selects how one dimension of a distributed array is divided
// among processes (MPI_Type_create_darray).
type Distribution uint8

const (
	// DistNone keeps the dimension undistributed: every process holds it
	// whole (MPI_DISTRIBUTE_NONE).
	DistNone Distribution = iota
	// DistBlock assigns each process one contiguous block
	// (MPI_DISTRIBUTE_BLOCK with the default block size).
	DistBlock
	// DistCyclic deals single elements round-robin
	// (MPI_DISTRIBUTE_CYCLIC with block size 1).
	DistCyclic
)

func (d Distribution) String() string {
	switch d {
	case DistNone:
		return "none"
	case DistBlock:
		return "block"
	case DistCyclic:
		return "cyclic"
	default:
		return fmt.Sprintf("Distribution(%d)", d)
	}
}

// Darray builds the datatype describing one process's share of a global
// n-dimensional array distributed over a process grid, in the spirit of
// MPI_Type_create_darray: given the global sizes, a per-dimension
// distribution, the process grid shape and this process's grid
// coordinates, the committed-to-be type selects exactly the elements this
// process owns, at their locations in the *global* row-major array.
//
// The type's extent spans the whole global array (like Subarray), so a
// file- or buffer-level view of the global matrix can be read or written
// with base pointing at its start. Block distributions use ceil-division
// block sizes, matching MPI's MPI_DISTRIBUTE_DFLT_DARG; trailing processes
// may own fewer (or zero) elements.
func Darray(gsizes []int, dists []Distribution, psizes []int, coords []int, order Order, base *Datatype) (*Datatype, error) {
	if err := checkBase(base); err != nil {
		return nil, err
	}
	n := len(gsizes)
	if n == 0 || len(dists) != n || len(psizes) != n || len(coords) != n {
		return nil, fmt.Errorf("datatype: darray dimension mismatch (%d/%d/%d/%d)",
			len(gsizes), len(dists), len(psizes), len(coords))
	}
	for d := 0; d < n; d++ {
		if gsizes[d] <= 0 || psizes[d] <= 0 || coords[d] < 0 || coords[d] >= psizes[d] {
			return nil, fmt.Errorf("datatype: darray dim %d out of range (g=%d p=%d c=%d)",
				d, gsizes[d], psizes[d], coords[d])
		}
		if dists[d] == DistNone && psizes[d] != 1 {
			return nil, fmt.Errorf("datatype: darray dim %d: DistNone requires a process grid of 1", d)
		}
	}
	gs, ds, ps, cs := gsizes, dists, psizes, coords
	if order == ColMajor {
		gs, ps, cs = reverse(gsizes), reverse(psizes), reverse(coords)
		ds = make([]Distribution, n)
		for i, v := range dists {
			ds[n-1-i] = v
		}
	}

	// ownedIndices lists the global indices this process owns along dim d,
	// in increasing order.
	ownedIndices := func(d int) []int {
		switch ds[d] {
		case DistNone:
			out := make([]int, gs[d])
			for i := range out {
				out[i] = i
			}
			return out
		case DistBlock:
			blk := (gs[d] + ps[d] - 1) / ps[d]
			lo := cs[d] * blk
			hi := min(lo+blk, gs[d])
			var out []int
			for i := lo; i < hi; i++ {
				out = append(out, i)
			}
			return out
		case DistCyclic:
			var out []int
			for i := cs[d]; i < gs[d]; i += ps[d] {
				out = append(out, i)
			}
			return out
		default:
			panic("datatype: unknown distribution")
		}
	}

	owned := make([][]int, n)
	size := base.size
	for d := 0; d < n; d++ {
		owned[d] = ownedIndices(d)
		size *= len(owned[d])
	}

	// Row-major strides in base elements.
	stride := make([]int, n)
	stride[n-1] = 1
	for d := n - 2; d >= 0; d-- {
		stride[d] = stride[d+1] * gs[d+1]
	}

	// Enumerate owned cells in global row-major order: an odometer over
	// the outer dimensions, with consecutive-index runs along the
	// innermost dimension appended as blocks.
	var c coalescer
	if size > 0 {
		outer := make([]int, n-1)
		for {
			baseOff := 0
			for d := 0; d < n-1; d++ {
				baseOff += owned[d][outer[d]] * stride[d]
			}
			inner := owned[n-1]
			for i := 0; i < len(inner); {
				run := 1
				for i+run < len(inner) && inner[i+run] == inner[i]+run {
					run++
				}
				c.repeat((baseOff+inner[i])*base.Extent(), base.runs, run, base.Extent())
				i += run
			}
			d := n - 2
			for ; d >= 0; d-- {
				outer[d]++
				if outer[d] < len(owned[d]) {
					break
				}
				outer[d] = 0
			}
			if d < 0 {
				break
			}
		}
	}

	t := &Datatype{
		name: fmt.Sprintf("darray(%dd,%s)", n, base.name),
		kind: KindSubarray,
		size: size,
	}
	t.setRuns(c.runs)
	t.lb = 0
	full := base.Extent()
	for d := 0; d < n; d++ {
		full *= gs[d]
	}
	t.ub = full
	return t, nil
}
