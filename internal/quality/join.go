package quality

import (
	"sync"
	"time"
)

// PendingPrediction is what the serving layer parks in the join buffer
// at predict time, waiting for delayed labels to arrive on /feedback.
type PendingPrediction struct {
	// Domain is the domain the prediction was served for.
	Domain string
	// Scores are the predicted probabilities, in request order.
	Scores []float32
	// Version is the serving snapshot version that produced the scores,
	// stamped at predict time. Feedback arriving after a snapshot swap
	// is attributed to the model that actually scored it — during a
	// canary, labels for the incumbent's predictions must never leak
	// into the canary's evaluation windows (and vice versa).
	Version uint64
}

// JoinBuffer joins delayed feedback labels to earlier predictions by
// request ID, with a bounded capacity and per-entry TTL: production
// label streams lag the request stream by minutes to days, so the
// buffer holds each prediction for at most TTL and evicts
// oldest-first when full. Safe for concurrent use.
//
// Storage is a flat ring of slots plus an integer-keyed index, not a
// linked list keyed by string: at its 65536-entry capacity the
// buffer sits on the serving hot path mostly unjoined (labels may
// never arrive), and tens of thousands of list nodes and string map
// buckets made every GC cycle walk the whole buffer. The ring keeps
// the per-slot pointers in one flat array and the index map
// pointer-free, which is what holds the quality-enabled serving
// benchmark inside the telemetry budget.
type JoinBuffer struct {
	ttl int64 // nanoseconds
	now func() time.Time

	mu    sync.Mutex
	slots []joinSlot
	// head/tail are absolute slot numbers; slot n lives at
	// slots[n%len(slots)]. head..tail is the occupied window,
	// oldest-first; taken or replaced entries leave tombstones
	// (used=false) that compaction reclaims.
	head, tail int
	live       int
	index      map[uint64]int // id hash -> absolute slot number

	evictions int64
}

type joinSlot struct {
	used     bool
	hash     uint64
	id       string
	pending  PendingPrediction
	deadline int64 // unix nanos
}

// joinCapacity is how many predictions a JoinBuffer holds at most.
const joinCapacity = 65536

// NewJoinBuffer builds a buffer holding at most joinCapacity predictions
// for at most ttl each (default 2 minutes). The now func is injectable
// for tests; nil means time.Now.
func NewJoinBuffer(ttl time.Duration, now func() time.Time) *JoinBuffer {
	if ttl <= 0 {
		ttl = 2 * time.Minute
	}
	if now == nil {
		now = time.Now
	}
	return &JoinBuffer{ttl: ttl.Nanoseconds(), now: now, index: map[uint64]int{}}
}

// Put parks a prediction under its request ID. A duplicate ID replaces
// the previous entry and refreshes its TTL. IDs are indexed by a
// 64-bit hash; a colliding later ID shadows the earlier entry (the
// shadowed one can no longer be taken and ages out by TTL) — at the
// bounded capacity the collision odds are ~2^-32, and the cost is one
// missed join, never a mislabeled one.
func (j *JoinBuffer) Put(id string, p PendingPrediction) {
	if id == "" {
		return
	}
	nowN := j.now().UnixNano()
	h := hashID(id)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.expireLocked(nowN)
	if n, ok := j.index[h]; ok {
		if s := j.slot(n); s.used && s.id == id {
			j.clearSlot(n)
		}
	}
	for j.live >= joinCapacity {
		j.evictOldestLocked()
	}
	j.ensureSpaceLocked()
	n := j.tail
	*j.slot(n) = joinSlot{used: true, hash: h, id: id, pending: p, deadline: nowN + j.ttl}
	j.index[h] = n
	j.tail++
	j.live++
}

// Take removes and returns the prediction parked under id. ok is false
// when the ID is unknown, already taken, or expired.
func (j *JoinBuffer) Take(id string) (PendingPrediction, bool) {
	nowN := j.now().UnixNano()
	h := hashID(id)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.expireLocked(nowN)
	n, ok := j.index[h]
	if !ok {
		return PendingPrediction{}, false
	}
	s := j.slot(n)
	if !s.used || s.id != id {
		return PendingPrediction{}, false
	}
	p := s.pending
	j.clearSlot(n)
	return p, true
}

// Len returns the number of parked predictions.
func (j *JoinBuffer) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.live
}

// Evictions returns the number of entries dropped by TTL expiry or
// capacity pressure since creation.
func (j *JoinBuffer) Evictions() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.evictions
}

func (j *JoinBuffer) slot(n int) *joinSlot { return &j.slots[n%len(j.slots)] }

// clearSlot tombstones slot n: the index entry goes (unless a newer
// slot took the hash over), the slot's pointers are zeroed so the GC
// can reclaim the strings and scores, and the head skips any leading
// tombstones.
func (j *JoinBuffer) clearSlot(n int) {
	s := j.slot(n)
	if m, ok := j.index[s.hash]; ok && m == n {
		delete(j.index, s.hash)
	}
	*s = joinSlot{}
	j.live--
	for j.head < j.tail && !j.slot(j.head).used {
		j.head++
	}
}

// expireLocked drops entries whose deadline has passed. Deadlines are
// non-decreasing in insertion order, so scanning from the front stops
// at the first live one.
func (j *JoinBuffer) expireLocked(nowN int64) {
	for j.head < j.tail {
		s := j.slot(j.head)
		if !s.used {
			j.head++
			continue
		}
		if nowN < s.deadline {
			return
		}
		j.clearSlot(j.head)
		j.evictions++
	}
}

func (j *JoinBuffer) evictOldestLocked() {
	for j.head < j.tail && !j.slot(j.head).used {
		j.head++
	}
	if j.head == j.tail {
		return
	}
	j.clearSlot(j.head)
	j.evictions++
}

// ensureSpaceLocked makes room for one more slot: skip leading
// tombstones, then grow the ring (up to joinCapacity), then compact
// interior tombstones, then evict the oldest live entry.
func (j *JoinBuffer) ensureSpaceLocked() {
	if len(j.slots) == 0 {
		j.slots = make([]joinSlot, 256)
		return
	}
	for j.head < j.tail && !j.slot(j.head).used {
		j.head++
	}
	if j.tail-j.head < len(j.slots) {
		return
	}
	switch {
	case len(j.slots) < joinCapacity:
		j.rebuild(min(2*len(j.slots), joinCapacity))
	case j.live < len(j.slots):
		j.rebuild(len(j.slots))
	default:
		j.evictOldestLocked()
	}
}

// rebuild repacks the live entries oldest-first into a ring of size n
// and re-derives the index.
func (j *JoinBuffer) rebuild(n int) {
	fresh := make([]joinSlot, n)
	idx := make(map[uint64]int, j.live)
	w := 0
	for i := j.head; i < j.tail; i++ {
		s := j.slot(i)
		if !s.used {
			continue
		}
		// Preserve shadowing: only the slot the index points at is
		// takeable, so carry exactly those forward.
		if m, ok := j.index[s.hash]; ok && m == i {
			fresh[w] = *s
			idx[s.hash] = w
			w++
		}
	}
	j.slots, j.index, j.head, j.tail, j.live = fresh, idx, 0, w, w
}

// hashID is FNV-1a over the request ID.
func hashID(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
