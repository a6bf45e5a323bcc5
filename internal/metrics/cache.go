package metrics

// CacheSnapshot is a point-in-time JSON-friendly copy of one bounded
// cache's counters (see lru.Cache.Snapshot) plus its current residency,
// as surfaced in /stats.
type CacheSnapshot struct {
	Len       int     `json:"len"` // entries currently resident
	Cap       int     `json:"cap"` // configured bound
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	HitRatio  float64 `json:"hit_ratio"` // hits / (hits + misses)
}
