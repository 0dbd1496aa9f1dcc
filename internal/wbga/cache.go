package wbga

import (
	"encoding/binary"
	"math"
	"sync"
)

// geneQuantBits sets the genome-cache key resolution: parameter genes in
// [0,1] are quantised to 2^-30 (≈1e-9 of the normalised range, i.e.
// sub-femtometre steps on the paper's Table 1 W/L ranges) before
// hashing. Converging GA populations re-emit bit-identical genomes —
// elites, crossover without mutation — across generations, and the
// quantisation additionally folds together genomes whose difference is
// far below any physical significance.
const geneQuantBits = 30

// quantKey renders a parameter-gene vector as a fixed-width binary cache
// key at geneQuantBits resolution.
func quantKey(genes []float64) string {
	b := make([]byte, 4*len(genes))
	for i, g := range genes {
		q := uint32(math.Round(clamp01(g) * (1 << geneQuantBits)))
		binary.LittleEndian.PutUint32(b[i*4:], q)
	}
	return string(b)
}

// cacheEntry memoises one evaluation outcome. Failed evaluations are
// cached too (ok=false) so the GA never re-simulates a known-bad genome.
type cacheEntry struct {
	objs []float64
	ok   bool
}

// genomeCache is a bounded, concurrency-safe memo of quantised parameter
// genes → objective values. Eviction is FIFO: once the bound is reached,
// the oldest distinct genome is dropped — a good fit for a GA, where
// re-evaluations cluster within a few adjacent generations.
type genomeCache struct {
	mu           sync.Mutex
	bound        int
	m            map[string]cacheEntry
	order        []string // insertion order; order[head:] are live
	head         int
	hits, misses int64
}

// newGenomeCache returns a cache holding at most bound distinct genomes.
func newGenomeCache(bound int) *genomeCache {
	if bound <= 0 {
		return nil
	}
	return &genomeCache{bound: bound, m: make(map[string]cacheEntry, bound)}
}

// get looks up a key, counting the hit or miss. A nil cache always
// misses without counting.
func (c *genomeCache) get(key string) (cacheEntry, bool) {
	if c == nil {
		return cacheEntry{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return e, ok
}

// put memoises one outcome, evicting the oldest entry when full. Putting
// an existing key only refreshes its entry.
func (c *genomeCache) put(key string, e cacheEntry) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.m[key]; exists {
		c.m[key] = e
		return
	}
	if len(c.m) >= c.bound {
		delete(c.m, c.order[c.head])
		c.head++
		if c.head > len(c.order)/2 {
			c.order = append(c.order[:0:0], c.order[c.head:]...)
			c.head = 0
		}
	}
	c.m[key] = e
	c.order = append(c.order, key)
}

// len reports the number of cached genomes.
func (c *genomeCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// stats returns the cumulative hit and miss counts.
func (c *genomeCache) stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
