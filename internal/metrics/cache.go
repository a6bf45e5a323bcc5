package metrics

import "sync/atomic"

// CacheCounters are the observability counters of one bounded cache
// (the corpus trace and web LRUs): how often it served from memory, how
// often it had to rebuild or reload, and how much it churned. All
// fields are updated atomically; a zero value is ready to use.
type CacheCounters struct {
	Hits      atomic.Int64
	Misses    atomic.Int64
	Evictions atomic.Int64
}

// CacheSnapshot is a point-in-time JSON-friendly copy of one cache's
// counters plus its current residency, as surfaced in /stats.
type CacheSnapshot struct {
	Len       int     `json:"len"` // entries currently resident
	Cap       int     `json:"cap"` // configured bound
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	HitRatio  float64 `json:"hit_ratio"` // hits / (hits + misses)
}

// Snapshot copies the counters, attaching the cache's current length
// and capacity (the caller knows those; the counters do not).
func (c *CacheCounters) Snapshot(length, capacity int) CacheSnapshot {
	s := CacheSnapshot{
		Len:       length,
		Cap:       capacity,
		Hits:      c.Hits.Load(),
		Misses:    c.Misses.Load(),
		Evictions: c.Evictions.Load(),
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRatio = float64(s.Hits) / float64(total)
	}
	return s
}
