package mem

import (
	"sync"
	"testing"
)

// parkedBy counts the n-byte backings the recycler holds that s freed.
func parkedBy(s *Space, n int) int {
	recycled.mu.Lock()
	defer recycled.mu.Unlock()
	c := 0
	for _, p := range recycled.byLen[n] {
		if p.owner == s.id {
			c++
		}
	}
	return c
}

// TestCrossOwnerReuseCleared: a backing freed by one space, or a payload
// buffer handed back, reaches another space's mapping as zeroes, while a
// payload take gets any parked buffer of its length, stale bytes and all.
func TestCrossOwnerReuseCleared(t *testing.T) {
	const n = 4093 // a length no other test in the package parks
	a, b := Reserve(Host, "a", -1, 1<<16), Reserve(Device, "b", 0, 1<<16)
	Fill(a.Map(0, n), n, func(int) byte { return 'a' })
	mustFree(t, a, 0)
	if got := b.Map(0, n).Bytes(n); got[0] != 0 || got[n-1] != 0 {
		t.Errorf("another space's backing reached b uncleared: %q...%q", got[0], got[n-1])
	}
	Fill(b.Base(), n, func(int) byte { return 'b' })
	mustFree(t, b, 0)
	if got := GetBytes(n); got[0] != 'b' {
		t.Errorf("payload take got %q, want b's stale bytes", got[0])
	} else {
		PutBytes(got)
	}
	if got := a.Map(0, n).Bytes(n); got[0] != 0 || got[n-1] != 0 {
		t.Errorf("a payload buffer reached a mapping uncleared: %q...%q", got[0], got[n-1])
	}
}

// TestRecyclerBound: a sweep of distinct lengths never holds more than
// recycleBound, and what is dropped to stay within it is the oldest.
func TestRecyclerBound(t *testing.T) {
	r := recycler{byLen: map[int][]parked{}}
	// The recycler looks only at lengths, so one backing array serves
	// every put and the sweep costs 4 MiB, not the bytes it counts.
	big := make([]byte, 4<<20)
	const puts = 100 // 100 lengths just under 4 MiB: about 400 MiB in all
	for i := 0; i < puts; i++ {
		r.put(big[:len(big)-i], 0)
		sum := 0
		for l, s := range r.byLen {
			sum += l * len(s)
		}
		if r.bytes > recycleBound || sum != r.bytes {
			t.Fatalf("after put %d: holds %d bytes (counted %d), bound %d", i, sum, r.bytes, recycleBound)
		}
	}
	// What is left is the newest puts, one per length, the oldest gone.
	kept := len(r.byLen)
	if kept == 0 || kept == puts {
		t.Fatalf("kept %d of %d lengths", kept, puts)
	}
	for i := 0; i < puts; i++ {
		if _, ok := r.byLen[len(big)-i]; ok != (i >= puts-kept) {
			t.Errorf("put %d (length %d): kept=%v, want only the newest %d kept", i, len(big)-i, ok, kept)
		}
	}
	if last := len(big) - (puts - kept - 1); r.bytes+last <= recycleBound {
		t.Errorf("dropped more than needed: %d held, room for the last one dropped (%d)", r.bytes, last)
	}
}

// TestRecyclerConcurrentUse: spaces and payload users on several
// goroutines share the recycler. Run under -race; every mapping must
// read as its own space's bytes or zeroes, never another goroutine's.
func TestRecyclerConcurrentUse(t *testing.T) {
	const workers, rounds, n = 4, 200, 512
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := Reserve(Host, "h", -1, 1<<16)
			mine := byte(w + 1)
			for i := 0; i < rounds; i++ {
				b := s.Map(0, n).Bytes(n)
				for _, c := range b {
					if c != 0 && c != mine {
						t.Errorf("worker %d round %d: mapping holds byte %d of another owner", w, i, c)
						return
					}
				}
				Fill(s.Base(), n, func(int) byte { return mine })
				if err := s.Free(s.Base()); err != nil {
					t.Error(err)
					return
				}
				p := GetBytes(n)
				for j := range p {
					p[j] = 0xff
				}
				PutBytes(p)
			}
		}(w)
	}
	wg.Wait()
}

// TestAllocWithAndRelease: AllocWith maps the given backing as it is,
// taking nothing from the recycler and clearing nothing; Release hands
// the backing back without parking it, and Free of a second mapping of
// it parks it once, under the freeing space.
func TestAllocWithAndRelease(t *testing.T) {
	const n = 4091 // a length no other test in the package parks
	var ca, cb ByteCounters
	a, b := Reserve(Device, "a", 0, 1<<16), Reserve(Device, "b", 1, 1<<16)
	a.SetByteCounters(&ca)
	b.SetByteCounters(&cb)
	shared := make([]byte, n)
	for i := range shared {
		shared[i] = 's'
	}
	before := Recycled()
	pa, err := a.AllocWith(shared, 256)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.AllocWith(shared, 256)
	if err != nil {
		t.Fatal(err)
	}
	if Recycled().Takes != before.Takes || ca.Zeroed != 0 || cb.Zeroed != 0 {
		t.Error("AllocWith took a recycled backing or zeroed one")
	}
	pa.Bytes(1)[0] = 'x'
	if pb.Bytes(1)[0] != 'x' || pb.Bytes(n)[n-1] != 's' {
		t.Error("two mappings of one backing do not share its bytes")
	}
	if back, err := a.Release(pa); err != nil || &back[0] != &shared[0] {
		t.Errorf("Release handed back %p, %v; want the backing given", back, err)
	}
	if parkedBy(a, n) != 0 || a.Mappings() != 0 {
		t.Error("Release parked the backing or left the mapping")
	}
	mustFree(t, b, pb.Offset())
	if parkedBy(b, n) != 1 {
		t.Error("Free of the second mapping did not park the backing under b")
	}
	if got := GetBytes(n); &got[0] != &shared[0] {
		t.Error("the parked backing is not the shared one")
	}
}

// TestByteCounters: Copy and a Copy2D of abutting rows count their bytes
// against the destination space, a strided Copy2D does not, and a fresh
// mapping counts its zeroed bytes.
func TestByteCounters(t *testing.T) {
	var c ByteCounters
	s := Reserve(Host, "h", -1, 1<<16)
	s.SetByteCounters(&c)
	p := s.Map(0, 4096)
	if c.Zeroed != 4096 {
		t.Errorf("a fresh 4096-byte mapping counted %d zeroed bytes", c.Zeroed)
	}
	Copy(p, p.Add(1024), 100)
	Copy2D(p, 16, p.Add(2048), 16, 16, 8) // abutting rows: one 128-byte run
	Copy2D(p, 32, p.Add(2048), 16, 16, 8) // strided
	if c.Copied != 228 {
		t.Errorf("counted %d copied bytes, want 228", c.Copied)
	}
}

// TestByteCountersStrided: a Copy2D whose rows do not abut counts once,
// as a strided copy of its rows, against the strided side's space, and
// Strided counts a walk against the typed buffer's space. Abutting rows
// stay a contiguous copy.
func TestByteCountersStrided(t *testing.T) {
	var typed, packed ByteCounters
	ts := Reserve(Host, "typed", -1, 1<<16)
	ts.SetByteCounters(&typed)
	ps := Reserve(Host, "packed", -1, 1<<16)
	ps.SetByteCounters(&packed)
	tp, pp := ts.Map(0, 4096), ps.Map(0, 4096)
	Copy2D(pp, 16, tp, 64, 16, 8) // pack: the source is strided
	Copy2D(tp, 64, pp, 16, 16, 4) // unpack: the destination is strided
	Copy2D(tp, 16, tp.Add(2048), 16, 16, 8)
	Strided(tp, 5, 40)
	if typed.StridedPieces != 17 || typed.StridedBytes != 232 || packed.StridedPieces != 0 {
		t.Errorf("typed space counted %d pieces and %d strided bytes, packed space %d pieces; want 17, 232 and 0",
			typed.StridedPieces, typed.StridedBytes, packed.StridedPieces)
	}
	if typed.Copied != 128 || packed.Copied != 0 {
		t.Errorf("counted %d and %d contiguous bytes, want 128 and 0", typed.Copied, packed.Copied)
	}
}
