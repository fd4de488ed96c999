package mem

import (
	"strings"
	"testing"
	"testing/quick"
)

// mustAlloc allocates n bytes at align and fails the test on an error.
func mustAlloc(t *testing.T, s *Space, n, align int) Ptr {
	t.Helper()
	p, err := s.Alloc(n, align)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAlignment(t *testing.T) {
	s := Reserve(Host, "h", -1, 1024)
	a, b := mustAlloc(t, s, 10, 64), mustAlloc(t, s, 10, 64)
	if a.Offset()%64 != 0 || b.Offset()%64 != 0 {
		t.Errorf("offsets %d,%d not aligned", a.Offset(), b.Offset())
	}
	if b.Offset()-a.Offset() != 64 {
		t.Errorf("rounding: second alloc at %d, want 64", b.Offset())
	}
	if s.InUse() != 128 {
		t.Errorf("InUse = %d, want 128 (rounded)", s.InUse())
	}
	if s.PeakInUse() != 128 || s.Mappings() != 2 {
		t.Errorf("peak=%d live=%d", s.PeakInUse(), s.Mappings())
	}
	// Only the requested bytes are backed, not the padding.
	mustPanic(t, "read of alignment padding", func() { a.Add(10).Bytes(1) }, "h+0xa")
}

func TestBadParametersPanic(t *testing.T) {
	s := Reserve(Host, "h", -1, 1024)
	for _, align := range []int{0, -8, 3, 96} {
		mustPanic(t, "bad alignment", func() { s.Alloc(8, align) }, "not a power of two")
	}
	for _, n := range []int{0, -5} {
		if _, err := s.Alloc(n, 64); err == nil {
			t.Errorf("Alloc(%d) succeeded", n)
		}
	}
	if _, err := s.Alloc(1025, 1); err == nil || !strings.Contains(err.Error(), "out of memory") {
		t.Errorf("oversized Alloc: got %v", err)
	}
}

func TestFirstFitPolicy(t *testing.T) {
	s := Reserve(Device, "gpu0", 0, 1024)
	x := mustAlloc(t, s, 256, 1)
	mustAlloc(t, s, 256, 1)
	z := mustAlloc(t, s, 256, 1)
	mustFree(t, s, x.Offset())
	mustFree(t, s, z.Offset())
	// First fit places a small allocation in the lowest gap.
	if w := mustAlloc(t, s, 128, 1); w.Offset() != 0 {
		t.Errorf("first-fit placed at %d, want 0", w.Offset())
	}
	if err := s.Check(); err != nil {
		t.Error(err)
	}
}

func TestFreeUnknownOffset(t *testing.T) {
	s := Reserve(Host, "h", -1, 1024)
	if err := s.Free(s.Base().Add(10)); err == nil {
		t.Error("free of unknown offset succeeded")
	}
	p := mustAlloc(t, s, 64, 64)
	if err := s.Free(p.Add(8)); err == nil {
		t.Error("free of interior offset succeeded")
	}
	if err := s.Free(NewHostSpace("other", 64).Base()); err == nil {
		t.Error("free of a pointer into another space succeeded")
	}
	if err := s.Free(Ptr{}); err == nil {
		t.Error("free of the nil pointer succeeded")
	}
	if s.Mappings() != 1 || s.InUse() != 64 {
		t.Errorf("failed frees changed the table: mappings=%d inUse=%d", s.Mappings(), s.InUse())
	}
}

// Property: fill the space with allocations, free them all, and the
// space is whole again — one allocation of its full size fits at offset
// 0 — for any alignment in the supported range.
func TestPropFillAndDrain(t *testing.T) {
	const size = 1 << 16
	f := func(alignPow uint8, sizes []uint16) bool {
		align := 1 << (alignPow % 8)
		s := Reserve(Device, "gpu0", 0, size)
		var ps []Ptr
		for _, n := range sizes {
			if p, err := s.Alloc(1+int(n)%2048, align); err == nil {
				ps = append(ps, p)
			}
		}
		for _, p := range ps {
			if s.Free(p) != nil {
				return false
			}
		}
		if s.Check() != nil || s.Mappings() != 0 || s.InUse() != 0 {
			return false
		}
		p, err := s.Alloc(size, align)
		return err == nil && p.Offset() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
