package compile

import (
	"reflect"
	"testing"

	"capri/internal/resultstore"
	"capri/internal/workload"
)

func TestPersistentTierRoundTrip(t *testing.T) {
	b, err := workload.ByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	p := b.Build(1)
	salt := []byte("test-salt-v1")

	dir := t.TempDir()
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewCache()
	c1.SetPersist(store, salt)
	r1, err := c1.Compile(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s := c1.Stats(); s.Misses != 1 || s.DiskHits != 0 {
		t.Fatalf("cold stats: %+v", s)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh process (new in-memory cache, reopened store) must replay the
	// compilation from disk without running the compiler.
	store2, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	c2 := NewCache()
	c2.SetPersist(store2, salt)
	r2, err := c2.Compile(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s := c2.Stats(); s.DiskHits != 1 || s.Misses != 0 {
		t.Fatalf("warm stats: %+v", s)
	}
	if r1.Program.Fingerprint() != r2.Program.Fingerprint() {
		t.Fatal("replayed program differs from compiled program")
	}
	if !reflect.DeepEqual(r1.Stats.StripTimings(), r2.Stats) {
		t.Fatalf("replayed stats differ:\n%+v\n%+v", r1.Stats.StripTimings(), r2.Stats)
	}

	// A different toolchain salt must not see the old entries.
	c3 := NewCache()
	c3.SetPersist(store2, []byte("test-salt-v2"))
	if _, err := c3.Compile(p, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if s := c3.Stats(); s.DiskHits != 0 || s.Misses != 1 {
		t.Fatalf("salted stats: %+v", s)
	}
}

func TestPersistentTierGarbagePayloadFallsBack(t *testing.T) {
	b, err := workload.ByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	p := b.Build(1)
	salt := []byte("s")
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	// Poison the exact key the cache will probe.
	c := NewCache()
	c.SetPersist(store, salt)
	store.Put(c.persistKey(cacheKey{prog: p.Fingerprint(), opts: DefaultOptions().Canonical()}), []byte("not json"))

	if _, err := c.Compile(p, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	// Undecodable payload is a miss: the compiler ran.
	if s := c.Stats(); s.DiskHits != 0 || s.Misses != 1 {
		t.Fatalf("stats: %+v", s)
	}
}
