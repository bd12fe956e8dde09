package stream

import "sort"

// TopK is a Space-Saving heavy-hitters sketch (Metwally, Agrawal, El
// Abbadi 2005): m counters answer "what are the most frequent keys" over
// an unbounded stream. While the number of distinct keys fits within m
// the counts are exact; beyond that, each reported count overestimates
// the true count by at most the counter's Err, and every key with true
// count > N/m is guaranteed to be present — the bound the online
// vocabulary ranking is specified against.
//
// Determinism: for a fixed input order the sketch state is a pure
// function of the stream (eviction picks the minimum-count entry with the
// smallest key among ties), so the merged stream's deterministic emission
// order yields a deterministic ranking.
type TopK struct {
	cap     int
	entries map[string]*tkEntry
	heap    []*tkEntry // min-heap by (count, key)
	n       uint64     // stream length
}

type tkEntry struct {
	key   string
	count uint64
	err   uint64 // max overestimation inherited at takeover
	pos   int    // heap index
}

// TopKEntry is one reported counter.
type TopKEntry struct {
	Key string
	// Count is the estimated frequency; the true frequency lies in
	// [Count-Err, Count].
	Count uint64
	Err   uint64
}

// NewTopK builds a sketch with capacity m counters (m ≥ 1).
func NewTopK(m int) *TopK {
	if m < 1 {
		m = 1
	}
	return &TopK{cap: m, entries: make(map[string]*tkEntry, m)}
}

// Add counts one occurrence of key.
func (t *TopK) Add(key string) { t.AddN(key, 1) }

// AddN counts n occurrences of key.
func (t *TopK) AddN(key string, n uint64) {
	if e, ok := t.entries[key]; ok {
		t.bump(e, n)
		return
	}
	t.insert(key, n)
}

// addKey counts one occurrence of the key spelled by b. It allocates the
// key's string only when the sketch starts counting that key: the
// lookup of a counted one allocates nothing.
func (t *TopK) addKey(b []byte) {
	if e, ok := t.entries[string(b)]; ok {
		t.bump(e, 1)
		return
	}
	t.insert(string(b), 1)
}

func (t *TopK) bump(e *tkEntry, n uint64) {
	t.n += n
	e.count += n
	t.down(e.pos)
}

// insert starts counting key, which the sketch does not hold, at n.
func (t *TopK) insert(key string, n uint64) {
	t.n += n
	if len(t.heap) < t.cap {
		e := &tkEntry{key: key, count: n, pos: len(t.heap)}
		t.entries[key] = e
		t.heap = append(t.heap, e)
		t.up(e.pos)
		return
	}
	// Take over the minimum counter: the new key inherits its count as
	// the overestimation bound (the Space-Saving step).
	min := t.heap[0]
	delete(t.entries, min.key)
	min.key = key
	min.err = min.count
	min.count += n
	t.entries[key] = min
	t.down(0)
}

// N returns the stream length observed so far.
func (t *TopK) N() uint64 { return t.n }

// Distinct returns the number of live counters (= distinct keys while the
// sketch is exact).
func (t *TopK) Distinct() int { return len(t.heap) }

// Exact reports whether every count is exact: no counter has ever been
// taken over.
func (t *TopK) Exact() bool {
	for _, e := range t.heap {
		if e.err > 0 {
			return false
		}
	}
	return true
}

// ErrBound returns the largest possible overestimation across reported
// counters (0 while the sketch is exact; always ≤ N/m).
func (t *TopK) ErrBound() uint64 {
	var b uint64
	for _, e := range t.heap {
		if e.err > b {
			b = e.err
		}
	}
	return b
}

// Top returns the k highest counters, ordered by descending count with
// ascending key among ties (a total order, so the report is
// deterministic).
func (t *TopK) Top(k int) []TopKEntry {
	out := make([]TopKEntry, 0, len(t.heap))
	for _, e := range t.heap {
		out = append(out, TopKEntry{Key: e.key, Count: e.count, Err: e.err})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// less orders the eviction heap by (count, key): the minimum count is
// evicted first, with the lexicographically smallest key among equals so
// eviction is deterministic.
func (t *TopK) less(i, j int) bool {
	a, b := t.heap[i], t.heap[j]
	if a.count != b.count {
		return a.count < b.count
	}
	return a.key < b.key
}

func (t *TopK) swap(i, j int) {
	t.heap[i], t.heap[j] = t.heap[j], t.heap[i]
	t.heap[i].pos = i
	t.heap[j].pos = j
}

func (t *TopK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.less(i, parent) {
			return
		}
		t.swap(i, parent)
		i = parent
	}
}

func (t *TopK) down(i int) {
	n := len(t.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && t.less(l, smallest) {
			smallest = l
		}
		if r < n && t.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		t.swap(i, smallest)
		i = smallest
	}
}
