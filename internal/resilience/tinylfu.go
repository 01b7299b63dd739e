package resilience

import "sync"

// sketchHashes is the number of count-min rows collapsed into one array:
// each key increments sketchHashes counters at positions derived from a
// double hash, and Estimate takes their minimum.
const sketchHashes = 4

// sketchMaxCount is the 4-bit counter ceiling. Counters saturate here and
// the periodic halving (aging) keeps estimates fresh, so 15 is plenty of
// resolution for an admission comparison.
const sketchMaxCount = 15

// Sketch is a TinyLFU admission filter (Einziger et al.): an approximate
// frequency counter over the recent access stream, backed by a 4-bit
// count-min sketch with periodic halving. A cache at capacity consults
// Admit before inserting — the candidate must be estimated strictly more
// frequent than the eviction victim — so a flood of one-off keys (a scan)
// cannot wash out the resident working set: scan keys have estimate ≤ 1
// and lose to any victim that has been touched twice.
//
// Sketch is safe for concurrent use.
type Sketch struct {
	mu       sync.Mutex
	counters []byte // two 4-bit counters per byte
	mask     uint64 // len(counters)*2 - 1; power-of-two slot count
	seed     uint64
	samples  int // touches since the last halving
	limit    int // halve when samples reaches this
}

// NewSketch returns a sketch sized for a cache of the given capacity: the
// slot count is the next power of two at or above 8× capacity (counter
// space an order beyond the cache keeps collision noise below the 1-bit
// resolution the Admit comparison needs), and the aging period is 10×
// capacity touches. seed selects the hash function, so the same seed
// reproduces the same collisions.
func NewSketch(capacity int, seed uint64) *Sketch {
	if capacity < 1 {
		capacity = 1
	}
	slots := 64
	for slots < capacity*8 {
		slots <<= 1
	}
	return &Sketch{
		counters: make([]byte, slots/2),
		mask:     uint64(slots - 1),
		seed:     seed,
		limit:    capacity * 10,
	}
}

// positions derives the sketchHashes counter slots for key via double
// hashing of one seeded 64-bit hash.
func (s *Sketch) positions(key string) [sketchHashes]uint64 {
	h := hash64(s.seed, key)
	h1, h2 := h, h>>32|h<<32
	var pos [sketchHashes]uint64
	for i := range pos {
		pos[i] = (h1 + uint64(i)*h2) & s.mask
	}
	return pos
}

// get reads the 4-bit counter at slot. Callers hold mu.
func (s *Sketch) get(slot uint64) byte {
	b := s.counters[slot>>1]
	if slot&1 == 0 {
		return b & 0x0f
	}
	return b >> 4
}

// inc increments the 4-bit counter at slot, saturating at sketchMaxCount.
// Callers hold mu.
func (s *Sketch) inc(slot uint64) {
	i := slot >> 1
	if slot&1 == 0 {
		if s.counters[i]&0x0f < sketchMaxCount {
			s.counters[i]++
		}
	} else {
		if s.counters[i]>>4 < sketchMaxCount {
			s.counters[i] += 0x10
		}
	}
}

// Touch records one access of key, aging the sketch (halving every counter)
// each time the sample budget is exhausted so estimates track the recent
// stream rather than all of history.
func (s *Sketch) Touch(key string) {
	pos := s.positions(key)
	s.mu.Lock()
	for _, p := range pos {
		s.inc(p)
	}
	s.samples++
	if s.samples >= s.limit {
		s.samples = 0
		for i := range s.counters {
			// Halve both nibbles in place; the 0x77 mask drops the bit a
			// nibble's shift would leak into its neighbor.
			s.counters[i] = (s.counters[i] >> 1) & 0x77
		}
	}
	s.mu.Unlock()
}

// Estimate returns the approximate recent access count of key (the count-min
// minimum over its slots).
func (s *Sketch) Estimate(key string) int {
	pos := s.positions(key)
	s.mu.Lock()
	min := s.get(pos[0])
	for _, p := range pos[1:] {
		if c := s.get(p); c < min {
			min = c
		}
	}
	s.mu.Unlock()
	return int(min)
}

// Admit reports whether candidate should displace victim in a full cache:
// only when the candidate's estimated frequency strictly exceeds the
// victim's. Ties keep the incumbent — the property that makes the policy
// scan-resistant.
func (s *Sketch) Admit(candidate, victim string) bool {
	pos := s.positions(candidate)
	vpos := s.positions(victim)
	s.mu.Lock()
	c := s.get(pos[0])
	for _, p := range pos[1:] {
		if e := s.get(p); e < c {
			c = e
		}
	}
	v := s.get(vpos[0])
	for _, p := range vpos[1:] {
		if e := s.get(p); e < v {
			v = e
		}
	}
	s.mu.Unlock()
	return c > v
}

// hash64 is a seeded 64-bit string hash: FNV-1a over the bytes, started
// from the seed, then the SplitMix64 finalizer so every state bit reaches
// every output bit (FNV alone mixes its low bits poorly).
func hash64(seed uint64, s string) uint64 {
	h := seed ^ 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}
