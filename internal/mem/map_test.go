package mem

import (
	"strings"
	"testing"
)

// mustPanic runs f and fails unless it panics with a message containing
// every one of want.
func mustPanic(t *testing.T, what string, f func(), want ...string) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Errorf("%s did not panic", what)
			return
		}
		msg, _ := r.(string)
		for _, w := range want {
			if !strings.Contains(msg, w) {
				t.Errorf("%s: panic %q does not mention %q", what, msg, w)
			}
		}
	}()
	f()
}

// mustFree frees the extent at off and fails the test on an error.
func mustFree(t *testing.T, s *Space, off int) {
	t.Helper()
	if err := s.Free(s.Base().Add(off)); err != nil {
		t.Fatal(err)
	}
}

func TestReserveMapsNothing(t *testing.T) {
	s := Reserve(Device, "gpu3", 3, 1<<20)
	if s.Size() != 1<<20 || s.Kind() != Device || s.DeviceID() != 3 || s.Mappings() != 0 {
		t.Fatalf("size=%d kind=%v dev=%d mappings=%d", s.Size(), s.Kind(), s.DeviceID(), s.Mappings())
	}
	if Reserve(Host, "h", 7, 16).DeviceID() != -1 {
		t.Error("host space kept a device ordinal")
	}
	mustPanic(t, "read of reserved memory", func() { s.Base().Add(64).Bytes(1) }, "gpu3+0x40")
	if NewHostSpace("full", 64).Mappings() != 1 || NewHostSpace("empty", 0).Mappings() != 0 {
		t.Error("NewHostSpace does not map its whole range as one extent")
	}
}

func TestMapUnmap(t *testing.T) {
	s := Reserve(Host, "heap", -1, 4096)
	a := s.Map(256, 100)
	b := s.Map(0, 256)
	c := s.Map(1024, 8)
	if a.Offset() != 256 || s.Mappings() != 3 {
		t.Fatalf("a=%v mappings=%d", a, s.Mappings())
	}
	for i, p := range []Ptr{a, b, c} {
		if buf := p.Bytes(8); buf[0] != 0 {
			t.Errorf("fresh mapping %d not zeroed", i)
		}
		p.Bytes(1)[0] = byte(i + 1)
	}
	if a.Bytes(1)[0] != 1 || b.Bytes(1)[0] != 2 || c.Bytes(1)[0] != 3 {
		t.Error("mappings share bytes")
	}
	mustFree(t, s, a.Offset())
	if s.Mappings() != 2 {
		t.Errorf("mappings = %d after free", s.Mappings())
	}
	mustPanic(t, "use after free", func() { a.Bytes(1) }, "heap+0x100")
	if err := s.Free(a); err == nil || !strings.Contains(err.Error(), "heap+0x100") {
		t.Errorf("double free: got %v", err)
	}
	if err := s.Free(s.Base().Add(4)); err == nil || !strings.Contains(err.Error(), "heap+0x4") {
		t.Errorf("free of interior offset: got %v", err)
	}
	mustPanic(t, "overlapping map", func() { s.Map(200, 64) }, "heap", "overlaps", "heap+0x0")
	mustPanic(t, "map into an extent's tail", func() { s.Map(1028, 8) }, "overlaps", "heap+0x400")
	mustPanic(t, "overlapping map over extent", func() { s.Map(1000, 100) }, "overlaps", "heap+0x400")
	mustPanic(t, "map past the end", func() { s.Map(4000, 100) }, "outside heap")
	mustPanic(t, "empty map", func() { s.Map(2048, 0) }, "outside heap")
	s.Map(256, 768) // the gap [256,1024) fits exactly
}

// TestViewBounds pins what one view may span: anything inside one
// mapping, up to and including its last byte; not one byte beyond, not
// across two abutting mappings, and nothing in a hole.
func TestViewBounds(t *testing.T) {
	s := Reserve(Device, "gpu0", 0, 1024)
	a := s.Map(0, 64)
	s.Map(64, 64)
	if v := a.Add(60).Bytes(4); len(v) != 4 || cap(v) != 4 {
		t.Errorf("view ending at the extent end: len=%d cap=%d", len(v), cap(v))
	}
	if v := s.Base().Bytes(64); len(v) != 64 {
		t.Error("whole-extent view")
	}
	mustPanic(t, "view one byte past the extent", func() { a.Add(60).Bytes(5) }, "gpu0+0x3c", "len 5")
	mustPanic(t, "view across abutting mappings", func() { s.Base().Bytes(128) }, "gpu0+0x0")
	mustPanic(t, "view in a hole", func() { s.Base().Add(512).Bytes(8) }, "gpu0+0x200")
	mustPanic(t, "view past the space", func() { s.Base().Add(1020).Bytes(8) }, "out of bounds")
	mustPanic(t, "negative length", func() { a.Bytes(-1) }, "out of bounds")
}

func TestZeroLengthAccessAnywhere(t *testing.T) {
	s := Reserve(Host, "h", -1, 1024)
	for _, off := range []int{0, 512, 1024} {
		if v := s.Base().Add(off).Bytes(0); len(v) != 0 {
			t.Errorf("zero-length view at %d has length %d", off, len(v))
		}
	}
	Copy(s.Base().Add(100), s.Base().Add(900), 0)
	Copy2D(s.Base(), 8, s.Base(), 8, 0, 4)
}

// TestSpareReuseLIFO: a freed backing is reused, stale bytes and all,
// by the next mapping of exactly its length, most recent first; a
// mapping of any other length gets fresh zeroed bytes.
func TestSpareReuseLIFO(t *testing.T) {
	s := Reserve(Host, "h", -1, 1<<20)
	x, y := s.Map(0, 256), s.Map(1024, 256)
	Fill(x, 256, func(int) byte { return 'x' })
	Fill(y, 256, func(int) byte { return 'y' })
	mustFree(t, s, 0)
	mustFree(t, s, 1024)
	if got := s.Map(4096, 128).Bytes(1)[0]; got != 0 {
		t.Errorf("mapping of another length reused a spare (byte %q)", got)
	}
	if got := s.Map(8192, 256).Bytes(1)[0]; got != 'y' {
		t.Errorf("first reuse got %q, want the most recently freed 'y'", got)
	}
	if got := s.Map(0, 256).Bytes(256)[255]; got != 'x' {
		t.Errorf("second reuse got %q, want 'x'", got)
	}
	if got := s.Map(16384, 256).Bytes(1)[0]; got != 0 {
		t.Errorf("spares exhausted, but the mapping is not fresh (byte %q)", got)
	}
	if n := parkedBy(s, 256); n != 0 {
		t.Errorf("recycler still holds %d of the space's backings after reusing both", n)
	}
}
