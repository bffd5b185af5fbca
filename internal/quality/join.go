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
//
// The ring grows to twice the capacity, so at most half its slots are
// ever live: a compaction frees at least as many slots as it copies,
// and Put and Take stay amortized O(1) however full the buffer is.
type JoinBuffer struct {
	ttl int64 // nanoseconds
	now func() time.Time

	mu    sync.Mutex
	slots []joinSlot
	// head/tail are absolute slot numbers; slot n lives at
	// slots[n%len(slots)]. head..tail is the occupied window,
	// oldest-first, and head is a live slot unless the window is empty;
	// taken or replaced entries leave tombstones (used=false) that
	// compaction reclaims.
	head, tail int
	live       int
	index      map[uint64]int // id hash -> absolute slot number

	evictions int64
	// copied counts slots moved by compaction.
	copied int64
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
//
// Put is where entries leave unjoined: it returns how many it dropped —
// expired, shadowed, or the oldest at capacity — for the caller to
// count (Tracker.FeedbackEvicted).
func (j *JoinBuffer) Put(id string, p PendingPrediction) (evicted int) {
	if id == "" {
		return 0
	}
	nowN := j.now().UnixNano()
	h := hashID(id)
	j.mu.Lock()
	defer j.mu.Unlock()
	before := j.evictions
	j.expireLocked(nowN)
	if n, ok := j.index[h]; ok {
		if s := j.slot(n); s.used && s.id == id {
			j.clearSlot(n)
		}
	}
	for j.live >= joinCapacity {
		j.clearSlot(j.head)
		j.evictions++
	}
	j.ensureSpaceLocked()
	n := j.tail
	*j.slot(n) = joinSlot{used: true, hash: h, id: id, pending: p, deadline: nowN + j.ttl}
	j.index[h] = n
	j.tail++
	j.live++
	return int(j.evictions - before)
}

// Take removes and returns the prediction parked under id. ok is false
// when the ID is unknown, already taken, or expired. An expired entry
// stays parked until the next Put drops and counts it.
func (j *JoinBuffer) Take(id string) (PendingPrediction, bool) {
	nowN := j.now().UnixNano()
	h := hashID(id)
	j.mu.Lock()
	defer j.mu.Unlock()
	n, ok := j.index[h]
	if !ok {
		return PendingPrediction{}, false
	}
	s := j.slot(n)
	if !s.used || s.id != id || nowN >= s.deadline {
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

// Evictions returns the number of entries Put has dropped since
// creation.
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
	for j.head < j.tail && nowN >= j.slot(j.head).deadline {
		j.clearSlot(j.head)
		j.evictions++
	}
}

// ensureSpaceLocked makes room for one more slot at the tail. A full
// window is compacted, into a ring twice the size when more than half
// its slots are live. Since at most joinCapacity are live, the ring
// stops growing at 2×joinCapacity slots.
func (j *JoinBuffer) ensureSpaceLocked() {
	if len(j.slots) == 0 {
		j.slots = make([]joinSlot, 256)
		return
	}
	if j.tail-j.head < len(j.slots) {
		return
	}
	n := len(j.slots)
	if 2*j.live > n {
		n *= 2
	}
	j.compact(n)
}

// compact repacks the live entries oldest-first into a ring of n slots
// — the current one, in place, when n is its size — and re-points the
// index. Shadowed entries are dropped: only the slot the index points
// at could ever be taken.
func (j *JoinBuffer) compact(n int) {
	dst := j.slots
	if n != len(dst) {
		dst = make([]joinSlot, n)
	}
	// Renumber from head's position in dst. In place, every write lands
	// at or behind the slot being read, so nothing unread is overwritten.
	start := j.head % n
	w := start
	for i := j.head; i < j.tail; i++ {
		s := j.slot(i)
		if m, ok := j.index[s.hash]; !s.used || !ok || m != i {
			continue
		}
		dst[w%n] = *s
		j.index[s.hash] = w
		w++
	}
	if n == len(j.slots) {
		// Zero the vacated slots so the GC can reclaim what they held.
		for i := w; i < start+j.tail-j.head; i++ {
			dst[i%n] = joinSlot{}
		}
	}
	j.copied += int64(w - start)
	j.evictions += int64(j.live - (w - start))
	j.slots, j.head, j.tail, j.live = dst, start, w, w-start
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
