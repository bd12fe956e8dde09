// Cacheeval evaluates query-result caching at an ultrapeer — the design
// question the paper's popularity analysis speaks to directly.
//
// Sripanidkulchai (2001) reported that caching Gnutella query results cuts
// traffic by up to 3.7×, but that measurement included the automated
// re-queries that clients blast into the network. The paper's filtered
// workload has much flatter popularity (Zipf α ≈ 0.2–0.4), which predicts
// far less cacheable traffic. This example quantifies exactly that: it
// runs the same TTL-bounded LRU result cache against
//
//	(a) the raw client workload, automation included, and
//	(b) the filtered user workload (rules 1–5 applied),
//
// and prints hit rates side by side, overall and per region.
package main

import (
	"fmt"
	"time"

	p2pquery "repro"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/geo"
	"repro/internal/wire"
)

// resultCache is a TTL-bounded LRU keyed by canonical keyword set.
type resultCache struct {
	capacity int
	ttl      time.Duration
	entries  map[string]*entry
	head     *entry // most recent
	tail     *entry // least recent
	hits     int
	misses   int
}

type entry struct {
	key        string
	at         time.Duration
	prev, next *entry
}

func newCache(capacity int, ttl time.Duration) *resultCache {
	return &resultCache{capacity: capacity, ttl: ttl, entries: make(map[string]*entry)}
}

func (c *resultCache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *resultCache) pushFront(e *entry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// Lookup serves a query at the given time and reports whether the cache
// answered it; misses install the result.
func (c *resultCache) Lookup(key string, at time.Duration) bool {
	if e, ok := c.entries[key]; ok && at-e.at <= c.ttl {
		c.hits++
		c.unlink(e)
		e.at = at
		c.pushFront(e)
		return true
	}
	c.misses++
	if e, ok := c.entries[key]; ok {
		c.unlink(e) // expired: refresh in place
		e.at = at
		c.pushFront(e)
		return false
	}
	if len(c.entries) >= c.capacity && c.tail != nil {
		evict := c.tail
		c.unlink(evict)
		delete(c.entries, evict.key)
	}
	e := &entry{key: key, at: at}
	c.entries[key] = e
	c.pushFront(e)
	return false
}

func (c *resultCache) hitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

func main() {
	fmt.Println("simulating 4 days of measurement traffic...")
	cfg := p2pquery.DefaultSimulation(2004, 0.05)
	cfg.Workload.Days = 4
	tr := p2pquery.Simulate(cfg)

	const (
		cacheSize = 4096
		cacheTTL  = 10 * time.Minute // typical result-cache freshness bound
	)

	// (a) Raw workload: every hop-1 query with a keyword set, as a cache
	// deployed at the node would see it pre-filtering.
	raw := newCache(cacheSize, cacheTTL)
	rawPerRegion := map[geo.Region]*resultCache{}
	reg := geo.Default()
	for i := range tr.Queries {
		q := &tr.Queries[i]
		key := wire.KeywordKey(q.Text)
		if key == "" {
			continue
		}
		raw.Lookup(key, q.At)
		r := reg.Lookup(tr.Conns[q.ConnID].Addr)
		rc := rawPerRegion[r]
		if rc == nil {
			rc = newCache(cacheSize, cacheTTL)
			rawPerRegion[r] = rc
		}
		rc.Lookup(key, q.At)
	}

	// (b) Filtered workload: user queries only.
	res := filter.Apply(tr)
	sessions := analysis.Enrich(res)
	user := newCache(cacheSize, cacheTTL)
	userPerRegion := map[geo.Region]*resultCache{}
	for i := range sessions {
		s := &sessions[i]
		for j := range s.Queries {
			q := &s.Queries[j]
			if q.Rule5 {
				continue
			}
			user.Lookup(q.Key, q.At)
			rc := userPerRegion[s.Region]
			if rc == nil {
				rc = newCache(cacheSize, cacheTTL)
				userPerRegion[s.Region] = rc
			}
			rc.Lookup(q.Key, q.At)
		}
	}

	fmt.Printf("\n%-22s %12s %14s\n", "workload", "queries", "cache hit rate")
	fmt.Println("--------------------------------------------------")
	fmt.Printf("%-22s %12d %13.1f%%\n", "raw (with automation)", raw.hits+raw.misses, 100*raw.hitRate())
	fmt.Printf("%-22s %12d %13.1f%%\n", "filtered (user only)", user.hits+user.misses, 100*user.hitRate())
	fmt.Println()
	for _, r := range []geo.Region{geo.NorthAmerica, geo.Europe, geo.Asia} {
		rawC, userC := rawPerRegion[r], userPerRegion[r]
		if rawC == nil || userC == nil {
			continue
		}
		fmt.Printf("%-22s raw %5.1f%%   user %5.1f%%\n", r, 100*rawC.hitRate(), 100*userC.hitRate())
	}

	// Tie the observation back to the popularity fits.
	c := core.Characterize(tr)
	fmt.Println()
	fmt.Printf("fitted popularity skew: NA-only α = %.3f, EU-only α = %.3f (paper: 0.386 / 0.223)\n",
		c.Figure11.Fit[analysis.ClassNAOnly].Alpha, c.Figure11.Fit[analysis.ClassEUOnly].Alpha)
	fmt.Println("conclusion: automated re-queries make caching look far more effective than")
	fmt.Println("user behavior justifies — the paper's argument for filtering, quantified.")
}
