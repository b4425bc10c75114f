package compile

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"

	"capri/internal/prog"
	"capri/internal/resultstore"
	"capri/internal/telemetry"
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
	mu       sync.Mutex
	entries  map[cacheKey]*cacheEntry
	persist  Persist // optional on-disk tier (see SetPersist)
	salt     []byte
	hits     atomic.Int64
	misses   atomic.Int64
	diskHits atomic.Int64
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

// CacheStats reports cache traffic. Hits + DiskHits + Misses equals the
// number of Compile calls served; Entries counts distinct (program, options)
// keys, including failed compilations (errors are cached too — recompiling
// an invalid input cannot succeed). DiskHits counts keys satisfied from the
// persistent tier (SetPersist) instead of being compiled.
type CacheStats struct {
	Hits     int64 `json:"hits"`
	DiskHits int64 `json:"disk_hits"`
	Misses   int64 `json:"misses"`
	Entries  int   `json:"entries"`
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return CacheStats{Hits: c.hits.Load(), DiskHits: c.diskHits.Load(), Misses: c.misses.Load(), Entries: n}
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
	persist := c.persist
	c.mu.Unlock()
	won := false
	e.once.Do(func() {
		won = true
		var pk resultstore.Key
		if persist != nil {
			pk = c.persistKey(key)
			if raw, ok := persist.Get(pk); ok {
				if res, ok := decodeStored(raw, opts); ok {
					c.diskHits.Add(1)
					telemetry.Caches.CompileDiskHits.Add(1)
					e.res = res
					return
				}
			}
		}
		c.misses.Add(1)
		telemetry.Caches.CompileMisses.Add(1)
		e.res, e.err = Compile(p, opts)
		if persist != nil && e.err == nil {
			if raw, err := encodeStored(e.res); err == nil {
				persist.Put(pk, raw)
			}
		}
	})
	if !won {
		c.hits.Add(1)
		telemetry.Caches.CompileHits.Add(1)
	}
	return e.res, e.err
}
