package datatype

import "fmt"

// IndexedBlock builds blocks of equal length blocklen at displacements
// displs, measured in base extents (MPI_Type_create_indexed_block).
func IndexedBlock(blocklen int, displs []int, base *Datatype) (*Datatype, error) {
	if blocklen < 0 {
		return nil, fmt.Errorf("datatype: negative block length %d", blocklen)
	}
	blocklens := make([]int, len(displs))
	for i := range blocklens {
		blocklens[i] = blocklen
	}
	t, err := Indexed(blocklens, displs, base)
	if err != nil {
		return nil, err
	}
	t.name = fmt.Sprintf("indexedBlock(%d x %d,%s)", len(displs), blocklen, base.name)
	return t, nil
}

// PackSize returns the buffer space needed to pack count elements of t,
// like MPI_Pack_size (without the MPI header slack: exactly the data).
func (t *Datatype) PackSize(count int) int {
	return count * t.size
}

// Envelope describes how a type was constructed, in the spirit of
// MPI_Type_get_envelope: the constructor kind and its integer parameters.
type Envelope struct {
	Kind Kind
	// NumSegments is the flattened segment count of one element.
	NumSegments int
	// Size, Extent, LB, UB mirror the type queries.
	Size, Extent, LB, UB int
}

// GetEnvelope returns the constructor summary.
func (t *Datatype) GetEnvelope() Envelope {
	return Envelope{
		Kind:        t.kind,
		NumSegments: t.pieces,
		Size:        t.size,
		Extent:      t.Extent(),
		LB:          t.lb,
		UB:          t.ub,
	}
}

// TrueExtent returns the actual span of data (min displacement and span
// covering all touched bytes), like MPI_Type_get_true_extent — unaffected
// by Resized bounds.
func (t *Datatype) TrueExtent() (trueLB, trueExtent int) {
	return t.trueLB, t.trueUB - t.trueLB
}

// GetElements returns how many complete elements of t fit in nbytes of
// packed data, and whether nbytes is an exact multiple (MPI_Get_elements'
// common use).
func (t *Datatype) GetElements(nbytes int) (count int, exact bool) {
	if t.size == 0 {
		return 0, nbytes == 0
	}
	return nbytes / t.size, nbytes%t.size == 0
}
