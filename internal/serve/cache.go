package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"

	"ximd/internal/obs"
	"ximd/internal/runner"
)

// progCache is the content-addressed decoded-program cache. Programs
// are hashed at submission over exactly the bytes the client sent (plus
// the architecture), so a repeat submission skips the whole cold path —
// assembly, validation, and the fast-engine pre-decode — and reuses the
// immutable runner.Program (which wraps a core.Decoded table, lockstep
// for VLIW).
// Correctness rests on two facts, both enforced by tests:
//
//   - a runner.Program is read-only after Load, so any number of
//     concurrent jobs can share one entry;
//   - a machine built from a shared decode table is architecturally
//     identical to one that decodes cold (TestCacheDifferential), so a
//     hit can never change a job's result, only its submit latency.
//
// Eviction is LRU with a fixed entry cap; hashes are never trusted
// across restarts (the cache is in-memory only), so stale entries
// cannot exist.
// progCache methods are not self-locking: the manager serializes get
// and put under its own mutex (the expensive Load on a miss happens
// outside the lock; a racing duplicate load is harmless — last put wins
// and both values are equivalent by construction).
type progCache struct {
	max     int
	entries map[string]*list.Element
	lru     list.List // front = most recently used
	hits    *obs.Counter
	misses  *obs.Counter
}

type cacheEntry struct {
	key  string
	prog *runner.Program
}

func newProgCache(max int, hits, misses *obs.Counter) *progCache {
	return &progCache{
		max:     max,
		entries: make(map[string]*list.Element),
		hits:    hits,
		misses:  misses,
	}
}

// programKey is the content address: sha256 over the architecture name,
// a zero separator, and the submitted program bytes (assembly text or
// binary image, exactly as sent).
func programKey(arch runner.Arch, source []byte) string {
	h := sha256.New()
	h.Write([]byte(arch))
	h.Write([]byte{0})
	h.Write(source)
	return hex.EncodeToString(h.Sum(nil))
}

// get returns the cached program for key, promoting it to most recently
// used. The caller must hold the manager's lock.
func (c *progCache) get(key string) (*runner.Program, bool) {
	el, ok := c.entries[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits.Inc()
	return el.Value.(*cacheEntry).prog, true
}

// put inserts a loaded program, evicting the least recently used entry
// past the cap. The caller must hold the manager's lock.
func (c *progCache) put(key string, prog *runner.Program) {
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		el.Value.(*cacheEntry).prog = prog
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, prog: prog})
	for c.max > 0 && c.lru.Len() > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// len reports the current entry count (for /varz).
func (c *progCache) len() int { return c.lru.Len() }
