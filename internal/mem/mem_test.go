package mem

import (
	"testing"
	"testing/quick"
)

func TestSpaceBasics(t *testing.T) {
	h := NewHostSpace("host0", 1024)
	d := NewDeviceSpace("gpu0", 0, 2048)
	if h.Kind() != Host || d.Kind() != Device {
		t.Error("kind mismatch")
	}
	if h.DeviceID() != -1 || d.DeviceID() != 0 {
		t.Error("device id mismatch")
	}
	if h.Size() != 1024 || d.Size() != 2048 {
		t.Error("size mismatch")
	}
	if Host.String() != "host" || Device.String() != "device" || Kind(9).String() == "" {
		t.Error("Kind.String")
	}
}

func TestPtrClassification(t *testing.T) {
	h := NewHostSpace("h", 16)
	d := NewDeviceSpace("d", 3, 16)
	if h.Base().IsDevice() {
		t.Error("host ptr classified as device")
	}
	if !d.Base().IsDevice() {
		t.Error("device ptr classified as host")
	}
	if d.Base().DeviceID() != 3 {
		t.Error("DeviceID")
	}
	if h.Base().SameSpace(d.Base()) {
		t.Error("different spaces reported same")
	}
	if !h.Base().Add(4).SameSpace(h.Base()) {
		t.Error("same space reported different")
	}
}

func TestNilPtr(t *testing.T) {
	var p Ptr
	if !p.IsNil() {
		t.Error("zero Ptr not nil")
	}
	if p.String() != "nil" {
		t.Errorf("String = %q", p.String())
	}
	defer func() {
		if recover() == nil {
			t.Error("deref of nil ptr did not panic")
		}
	}()
	p.Bytes(1)
}

func TestPtrAddBounds(t *testing.T) {
	s := NewHostSpace("h", 10)
	p := s.Base().Add(10) // one-past-end is legal
	_ = p
	for _, bad := range []int{-1, 11} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d) did not panic", bad)
				}
			}()
			s.Base().Add(bad)
		}()
	}
}

func TestBytesBounds(t *testing.T) {
	s := NewHostSpace("h", 10)
	b := s.Base().Add(2).Bytes(3)
	if len(b) != 3 || cap(b) != 3 {
		t.Errorf("len=%d cap=%d", len(b), cap(b))
	}
	b[0] = 7
	if s.Base().Bytes(10)[2] != 7 {
		t.Error("write not visible through space")
	}
	defer func() {
		if recover() == nil {
			t.Error("oversized Bytes did not panic")
		}
	}()
	s.Base().Add(8).Bytes(3)
}

func TestCopy(t *testing.T) {
	a := NewHostSpace("a", 32)
	b := NewDeviceSpace("b", 0, 32)
	Fill(a.Base(), 32, func(i int) byte { return byte(i) })
	Copy(b.Base().Add(4), a.Base().Add(8), 16)
	for i := 0; i < 16; i++ {
		if b.Base().Bytes(32)[4+i] != byte(8+i) {
			t.Fatalf("byte %d mismatch", i)
		}
	}
	if !Equal(b.Base().Add(4), a.Base().Add(8), 16) {
		t.Error("Equal = false after copy")
	}
	if Equal(b.Base(), a.Base(), 32) {
		t.Error("Equal = true on differing ranges")
	}
}

func TestCopyOverlap(t *testing.T) {
	s := NewHostSpace("s", 16)
	Fill(s.Base(), 16, func(i int) byte { return byte(i) })
	// Overlapping forward copy must behave like memmove.
	Copy(s.Base().Add(2), s.Base(), 8)
	want := []byte{0, 1, 0, 1, 2, 3, 4, 5, 6, 7}
	got := s.Base().Bytes(10)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("overlap copy: got %v, want %v", got, want)
		}
	}
}

func TestCopy2D(t *testing.T) {
	// Pack a 3-row × 4-byte column out of an 8-byte-pitch source.
	src := NewDeviceSpace("src", 0, 64)
	dst := NewHostSpace("dst", 64)
	Fill(src.Base(), 64, func(i int) byte { return byte(i) })
	Copy2D(dst.Base(), 4, src.Base().Add(2), 8, 4, 3)
	want := []byte{2, 3, 4, 5, 10, 11, 12, 13, 18, 19, 20, 21}
	got := dst.Base().Bytes(12)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Copy2D: got %v, want %v", got, want)
		}
	}
}

func TestCopy2DPitchValidation(t *testing.T) {
	s := NewHostSpace("s", 64)
	defer func() {
		if recover() == nil {
			t.Error("pitch < width did not panic")
		}
	}()
	Copy2D(s.Base(), 2, s.Base(), 8, 4, 2)
}

func TestCopy2DNegativeDims(t *testing.T) {
	s := NewHostSpace("s", 64)
	defer func() {
		if recover() == nil {
			t.Error("negative height did not panic")
		}
	}()
	Copy2D(s.Base(), 8, s.Base(), 8, 4, -1)
}

func TestCopy2DZeroRows(t *testing.T) {
	s := NewHostSpace("s", 8)
	Copy2D(s.Base(), 8, s.Base(), 8, 4, 0) // no-op, must not panic
}

// TestCopy2DLastRowBounds pins the bounds check to the last row: a
// rectangle whose final row ends exactly at the end of the space copies,
// and one byte further panics on either side.
func TestCopy2DLastRowBounds(t *testing.T) {
	s := NewHostSpace("s", 4*8+4)
	d := NewHostSpace("d", 64)
	Copy2D(d.Base(), 4, s.Base(), 8, 4, 5) // last source row is [32,36)
	for name, f := range map[string]func(){
		"src": func() { Copy2D(d.Base(), 4, s.Base().Add(1), 8, 4, 5) },
		"dst": func() { Copy2D(s.Base().Add(1), 8, d.Base(), 4, 4, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: copy past the end of the space did not panic", name)
				}
			}()
			f()
		}()
	}
}

// Property: Copy2D into a contiguous destination followed by Copy2D back
// into a strided buffer restores the original strided contents (the
// pack/unpack identity the whole datatype path relies on).
func TestPropCopy2DRoundTrip(t *testing.T) {
	f := func(widthRaw, heightRaw, padRaw uint8) bool {
		width := 1 + int(widthRaw%16)
		height := 1 + int(heightRaw%16)
		pitch := width + int(padRaw%8)
		src := NewDeviceSpace("src", 0, pitch*height+16)
		packed := NewHostSpace("packed", width*height)
		back := NewDeviceSpace("back", 0, pitch*height+16)
		Fill(src.Base(), src.Size(), func(i int) byte { return byte(i * 31) })
		Copy2D(packed.Base(), width, src.Base(), pitch, width, height)
		Copy2D(back.Base(), pitch, packed.Base(), width, width, height)
		for r := 0; r < height; r++ {
			if !Equal(back.Base().Add(r*pitch), src.Base().Add(r*pitch), width) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPtrString(t *testing.T) {
	s := NewHostSpace("hostA", 64)
	if got := s.Base().Add(16).String(); got != "hostA+0x10" {
		t.Errorf("String = %q", got)
	}
}
