package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// firstFit is the reference Space.Alloc is checked against: a first-fit
// free list over [0,size) with eager coalescing, a separate record of
// the free spans next to a map of the live ones. Space.Alloc must pick
// the same offset as firstFit.alloc at every step, and fail where it
// fails.
type firstFit struct {
	align int
	free  []span      // sorted by offset, non-adjacent, non-overlapping
	live  map[int]int // offset -> rounded length
}

type span struct{ off, len int }

func newFirstFit(size, align int) *firstFit {
	return &firstFit{align: align, free: []span{{0, size}}, live: map[int]int{}}
}

func (a *firstFit) alloc(n int) (int, bool) {
	need := (n + a.align - 1) &^ (a.align - 1)
	for i, s := range a.free {
		if s.len >= need {
			if s.len == need {
				a.free = append(a.free[:i], a.free[i+1:]...)
			} else {
				a.free[i] = span{s.off + need, s.len - need}
			}
			a.live[s.off] = need
			return s.off, true
		}
	}
	return 0, false
}

func (a *firstFit) release(off int) bool {
	n, ok := a.live[off]
	if !ok {
		return false
	}
	delete(a.live, off)
	i := 0
	for i < len(a.free) && a.free[i].off < off {
		i++
	}
	a.free = append(a.free, span{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = span{off, n}
	if i+1 < len(a.free) && off+n == a.free[i+1].off {
		a.free[i].len += a.free[i+1].len
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].off+a.free[i-1].len == off {
		a.free[i-1].len += a.free[i].len
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
	return true
}

// TestPropAllocMatchesFirstFit runs random alloc/free sequences, with
// the odd free of an interior offset, against Space and the reference at
// the two alignments the simulator uses: 64 (host heaps) and 256
// (device memory). The space's size is not a multiple of the alignment,
// so the tail gap is exercised too.
func TestPropAllocMatchesFirstFit(t *testing.T) {
	const size = 1<<16 + 100
	f := func(seed int64, wide bool) bool {
		align := 64
		if wide {
			align = 256
		}
		rng := rand.New(rand.NewSource(seed))
		s, ref := Reserve(Device, "gpu0", 0, size), newFirstFit(size, align)
		var live []int
		for step := 0; step < 300; step++ {
			switch r := rng.Intn(8); {
			case r < 4 || len(live) == 0:
				n := 1 + rng.Intn(6000)
				want, ok := ref.alloc(n)
				p, err := s.Alloc(n, align)
				if ok != (err == nil) || ok && p.Offset() != want {
					t.Logf("seed %d step %d: Alloc(%d) = %v, %v; reference %d, %v", seed, step, n, p, err, want, ok)
					return false
				}
				if ok {
					live = append(live, want)
				}
			case r == 7:
				off := live[rng.Intn(len(live))] + 1 + rng.Intn(align-1)
				if ref.release(off) || s.Free(s.Base().Add(off)) == nil {
					t.Logf("seed %d step %d: free of interior offset %d succeeded", seed, step, off)
					return false
				}
			default:
				i := rng.Intn(len(live))
				if !ref.release(live[i]) || s.Free(s.Base().Add(live[i])) != nil {
					t.Logf("seed %d step %d: free of %d failed", seed, step, live[i])
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
			if err := s.Check(); err != nil || s.Mappings() != len(ref.live) {
				t.Logf("seed %d step %d: %v, %d extents for %d live", seed, step, err, s.Mappings(), len(ref.live))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
