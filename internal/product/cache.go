// Package product evaluates sets of compatible compiled machines in one
// pass: member tag DFAs are merged into a core.ProductDFA (DESIGN.md §13)
// stepped once per coded batch, with per-state bitset masks demultiplexed
// back into per-query match streams. The package owns the three policy
// layers around the core construction — grouping a heterogeneous query set
// into product groups (group.go), LRU-caching compiled products across runs
// (this file), and chunk-parallel evaluation of a product over a worker
// pool (parallel.go). The differential battery in this package pins the
// whole stack against fan-out and the string path.
package product

import (
	"container/list"
	"strconv"
	"sync"

	"stackless/internal/core"
	"stackless/internal/obs"
)

// DefaultCacheSize is the capacity of the shared product cache: products
// are keyed per query *set*, so even a service hosting many subscriber
// pools rarely has more than a handful of live sets.
const DefaultCacheSize = 64

// entry is one cached compilation result. Failures (ErrProductTooLarge) are
// cached too: discovering that a set blows the state cap costs a bounded
// BFS, and re-discovering it per run would charge that to every query.
type entry struct {
	key string
	p   *core.ProductDFA
	err error
}

// Cache is an LRU of compiled products keyed by the canonical query-set key
// (sorted member ids + each member's alphabet generation, see Get). Member
// ids are core.TagDFA.ID: the cache deduplicates repeated *sets* of
// machines, not structurally equal automata, and an evicted set leaves
// nothing behind that keeps its machines alive. Safe for concurrent use;
// compilation runs under the lock, so concurrent requests for the same set
// compile once.
type Cache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List               // front = most recent
	m   map[string]*list.Element // key → entry element
}

// NewCache returns a cache holding up to capacity products (minimum 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{cap: capacity, ll: list.New(), m: make(map[string]*list.Element)}
}

var (
	sharedOnce  sync.Once
	sharedCache *Cache
)

// Shared returns the process-wide product cache.
func Shared() *Cache {
	sharedOnce.Do(func() { sharedCache = NewCache(DefaultCacheSize) })
	return sharedCache
}

// Len returns the number of cached entries (including cached failures).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Get returns the compiled product of the member set, compiling and caching
// it on a miss. Members are canonicalized by sorting on machine id, so any
// permutation of the same set is one cache entry; the returned order maps
// mask bits back to the caller's slice — bit i of the product's acceptance
// bitsets is members[order[i]]. The key also folds in each member's
// alphabet generation: growing a member's alphabet after a compile changes
// the key, so the stale product (whose union and symbol maps predate the
// growth) is never served for the extended machine.
//
// Hits and misses are counted on col (nil: uncounted); a cached failure
// counts as a hit.
func (c *Cache) Get(members []*core.TagDFA, maxStates int, col *obs.Collector) (*core.ProductDFA, []int, error) {
	order := make([]int, len(members))
	ids := make([]uint64, len(members))
	for i, m := range members {
		order[i] = i
		ids[i] = m.ID()
	}
	// Insertion sort by id: member sets are small and mostly pre-sorted
	// (queries compile in order, and ids follow construction order).
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && ids[order[j]] < ids[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	var key []byte
	for _, pos := range order {
		key = strconv.AppendUint(key, ids[pos], 10)
		key = append(key, ':')
		key = strconv.AppendInt(key, int64(members[pos].Alphabet.Generation()), 10)
		key = append(key, ';')
	}
	k := string(key)

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		c.ll.MoveToFront(el)
		if col != nil {
			col.ProductCacheHits.Inc()
		}
		e := el.Value.(*entry)
		return e.p, order, e.err
	}
	if col != nil {
		col.ProductCacheMisses.Inc()
	}
	canon := make([]*core.TagDFA, len(members))
	for i, pos := range order {
		canon[i] = members[pos]
	}
	p, err := core.NewProductDFA(canon, maxStates)
	c.m[k] = c.ll.PushFront(&entry{key: k, p: p, err: err})
	for c.ll.Len() > c.cap {
		old := c.ll.Back()
		c.ll.Remove(old)
		delete(c.m, old.Value.(*entry).key)
	}
	return p, order, err
}
