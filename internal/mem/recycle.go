package mem

import (
	"slices"
	"sync"
)

// recycleBound is the most bytes the recycler holds. Past it the oldest
// parked buffers are dropped for the garbage collector. It is sized to
// keep everything one cluster of a committed workload frees, so the next
// cluster in the process finds it all: the most any of them frees is
// 163 MB on load-poisson, then 143 MB on vector-4m, 69 MB on
// halo-subarray and 0.2 MB on eager-4k.
const recycleBound = 256 << 20

// recycled is the one place freed simulated bytes go: Space backings
// released by Free, and payload buffers returned by PutBytes. It outlives
// every cluster, so a cluster built after another reuses what the first
// one freed instead of asking the Go heap for fresh zeroed memory.
var recycled = recycler{byLen: map[int][]parked{}}

// recycler parks freed byte slices by exact length and hands them out
// most recent first. Clusters in one process may run on different
// goroutines, and this is the state they share, so one mutex guards it.
type recycler struct {
	mu     sync.Mutex
	byLen  map[int][]parked // per length, oldest first
	bytes  int              // bytes parked
	seq    uint64           // puts so far: the age order for eviction
	owners int              // owner ids handed out; 0 is no Space
	stats  RecyclerStats
}

// parked is one freed slice and who freed it.
type parked struct {
	b     []byte
	owner int    // id of the Space that freed b; 0 for a payload buffer
	seq   uint64 // put order
}

// RecyclerStats counts the recycler's traffic since the process
// started. The recycler is shared by every cluster and test in the
// process, so compare two snapshots rather than reading one.
type RecyclerStats struct {
	Takes uint64 // buffers handed out
	Fresh uint64 // takes no parked buffer could serve: a new allocation
	Puts  uint64 // buffers handed back
}

// Reused returns the takes a parked buffer served.
func (s RecyclerStats) Reused() uint64 { return s.Takes - s.Fresh }

// Recycled returns the recycler's counters.
func Recycled() RecyclerStats {
	recycled.mu.Lock()
	defer recycled.mu.Unlock()
	return recycled.stats
}

// GetBytes returns an n-byte payload buffer: the most recently parked
// slice of exactly that length, whoever freed it and with its stale
// contents, or a fresh one. Every user overwrites the whole buffer
// before reading it. GetBytes(0) returns nil.
func GetBytes(n int) []byte {
	if n == 0 {
		return nil
	}
	if p, ok := recycled.take(n); ok {
		return p.b
	}
	return make([]byte, n)
}

// PutBytes hands b back for reuse. The caller must hold no other
// reference to it: the next take of its length, by any cluster in the
// process, gets it.
func PutBytes(b []byte) {
	if len(b) > 0 {
		recycled.put(b, 0)
	}
}

// newOwner returns a fresh owner id for a Space.
func (r *recycler) newOwner() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.owners++
	return r.owners
}

// take removes and returns the most recently parked slice of length n.
func (r *recycler) take(n int) (parked, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Takes++
	s := r.byLen[n]
	if len(s) == 0 {
		r.stats.Fresh++
		return parked{}, false
	}
	p := s[len(s)-1]
	s[len(s)-1] = parked{}
	r.byLen[n] = s[:len(s)-1]
	r.bytes -= n
	return p, true
}

// put parks b as freed by owner, then drops the oldest parked slices
// until the recycler is within recycleBound again.
func (r *recycler) put(b []byte, owner int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Puts++
	r.seq++
	r.byLen[len(b)] = append(r.byLen[len(b)], parked{b, owner, r.seq})
	r.bytes += len(b)
	for r.bytes > recycleBound {
		r.evictOldest()
	}
}

// evictOldest drops the oldest parked slice: the oldest of some length,
// since each length's slices are kept in put order. Eviction is rare —
// one cluster frees less than the bound — so a scan of the lengths is
// cheap enough, and its result does not depend on map order because put
// orders are distinct.
func (r *recycler) evictOldest() {
	n, oldest := 0, uint64(0)
	for l, s := range r.byLen {
		if len(s) > 0 && (oldest == 0 || s[0].seq < oldest) {
			n, oldest = l, s[0].seq
		}
	}
	if s := slices.Delete(r.byLen[n], 0, 1); len(s) > 0 {
		r.byLen[n] = s
	} else {
		delete(r.byLen, n)
	}
	r.bytes -= n
}
