package compile

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"

	"capri/internal/prog"
)

// Cache is a concurrency-safe, content-addressed compile cache. The key is
// the program's Fingerprint (a sha256 over every instruction field) crossed
// with the canonicalized Options, so two callers compiling structurally
// identical programs under output-equivalent options share one compilation.
// Compile never mutates its input and machines never mutate programs, so the
// cached *Result — including its Program — is shared, not copied.
//
// Concurrent misses on the same key are single-flighted through a per-entry
// sync.Once: exactly one goroutine compiles, the rest block on the same
// entry and count as hits.
type Cache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	hits    atomic.Int64
	misses  atomic.Int64
}

type cacheKey struct {
	prog [sha256.Size]byte
	opts Options // canonicalized; comparable by construction
}

type cacheEntry struct {
	once sync.Once
	res  *Result
	err  error
}

// NewCache returns an empty compile cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[cacheKey]*cacheEntry)}
}

// CacheStats reports cache traffic. Hits + Misses equals the number of
// Compile calls served; Entries counts distinct (program, options) keys,
// including failed compilations (errors are cached too — recompiling an
// invalid input cannot succeed).
type CacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: n}
}

// Compile returns the cached result for (p, opts), compiling on first use.
// The returned Result is shared across callers and must not be mutated.
func (c *Cache) Compile(p *prog.Program, opts Options) (*Result, error) {
	if opts.Threshold <= 0 || validateVerifyAfter(opts) != nil {
		// Don't cache-key invalid options; let Compile produce the error.
		return Compile(p, opts)
	}
	key := cacheKey{prog: p.Fingerprint(), opts: opts.Canonical()}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	won := false
	e.once.Do(func() {
		won = true
		c.misses.Add(1)
		e.res, e.err = Compile(p, opts)
	})
	if !won {
		c.hits.Add(1)
	}
	return e.res, e.err
}
