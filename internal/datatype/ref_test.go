package datatype

// Reference walkers: flattened one-segment-per-piece derivations of what
// the run form answers, the ground truth its tests compare against.

// uniform2DSlow derives Uniform2D the flattened way: expand the full
// segment list and test it for uniformity.
func (t *Datatype) uniform2DSlow(count int) (Shape2D, bool) {
	t.mustCommitted()
	if count <= 0 || t.Size() == 0 {
		return Shape2D{}, false
	}
	segs := t.SegmentsOf(count)
	if len(segs) == 1 {
		return Shape2D{Off: segs[0].Off, Width: segs[0].Len, Pitch: segs[0].Len, Rows: 1}, true
	}
	width := segs[0].Len
	pitch := segs[1].Off - segs[0].Off
	if pitch < width {
		return Shape2D{}, false
	}
	for i, s := range segs {
		if s.Len != width {
			return Shape2D{}, false
		}
		if i > 0 && s.Off-segs[i-1].Off != pitch {
			return Shape2D{}, false
		}
	}
	return Shape2D{Off: segs[0].Off, Width: width, Pitch: pitch, Rows: len(segs)}, true
}

// refSegments expands count elements of t piece by piece in stream
// order, without coalescing across elements: element i contributes its
// IOV shifted by i*Extent().
func refSegments(t *Datatype, count int) []Segment {
	iov := t.IOV()
	var out []Segment
	for i := 0; i < count; i++ {
		for _, s := range iov {
			out = append(out, Segment{i*t.Extent() + s.Off, s.Len})
		}
	}
	return out
}

// refPack gathers count elements of t from the typed bytes src (typed
// displacement d at src[d+pad]) into a fresh packed slice, one piece at a
// time.
func refPack(t *Datatype, src []byte, pad, count int) []byte {
	var out []byte
	for _, s := range refSegments(t, count) {
		out = append(out, src[pad+s.Off:pad+s.Off+s.Len]...)
	}
	return out
}

// refUnpack scatters packed into the typed bytes dst, one piece at a time.
func refUnpack(t *Datatype, dst []byte, pad, count int, packed []byte) {
	pos := 0
	for _, s := range refSegments(t, count) {
		copy(dst[pad+s.Off:pad+s.Off+s.Len], packed[pos:pos+s.Len])
		pos += s.Len
	}
}

// chunkSeg is one contiguous copy of the flattened chunk plan: len bytes
// at typedOff in the typed buffer, landing at packOff in the packed
// stream.
type chunkSeg struct {
	typedOff, packOff, len int
}

// refChunkSegs is the flattened plan derivation: walk the packed stream
// piece by piece, split at chunk boundaries, and merge typed-contiguous
// neighbours within a chunk. It returns each chunk's segment list.
func refChunkSegs(t *Datatype, count, chunkBytes int) [][]chunkSeg {
	total := count * t.Size()
	chunks := make([][]chunkSeg, (total+chunkBytes-1)/chunkBytes)
	packOff := 0
	for _, s := range refSegments(t, count) {
		typedOff, n := s.Off, s.Len
		for n > 0 {
			c := packOff / chunkBytes
			take := min(n, (c+1)*chunkBytes-packOff)
			segs := chunks[c]
			if k := len(segs) - 1; k >= 0 && segs[k].typedOff+segs[k].len == typedOff {
				segs[k].len += take
			} else {
				chunks[c] = append(segs, chunkSeg{typedOff, packOff, take})
			}
			packOff += take
			typedOff += take
			n -= take
		}
	}
	return chunks
}
