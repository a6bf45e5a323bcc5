package metrics

import "sync/atomic"

// BlobCounters are the live observability counters of the corpus blob
// tier: raw operation counts against the object store, retry pressure
// (how often the jittered-backoff wrapper had to re-attempt), transfer
// volume, and the tier's churn — hydrations pull a trace from the
// bucket back onto local disk, disk evictions push a locally cached
// trace out to make room. All fields are updated atomically; a zero
// value is ready to use.
type BlobCounters struct {
	Puts          atomic.Int64
	Gets          atomic.Int64
	Stats         atomic.Int64
	Deletes       atomic.Int64
	Lists         atomic.Int64
	Retries       atomic.Int64
	Errors        atomic.Int64
	BytesUp       atomic.Int64
	BytesDown     atomic.Int64
	Hydrations    atomic.Int64
	DiskEvictions atomic.Int64
}

// BlobSnapshot is a point-in-time JSON-friendly copy of the counters,
// as surfaced in /stats.
type BlobSnapshot struct {
	Puts          int64 `json:"puts"`
	Gets          int64 `json:"gets"`
	Stats         int64 `json:"stats"`
	Deletes       int64 `json:"deletes"`
	Lists         int64 `json:"lists"`
	Retries       int64 `json:"retries"`
	Errors        int64 `json:"errors"`
	BytesUp       int64 `json:"bytes_up"`
	BytesDown     int64 `json:"bytes_down"`
	Hydrations    int64 `json:"hydrations"`
	DiskEvictions int64 `json:"disk_evictions"`
}

// Snapshot copies the counters.
func (c *BlobCounters) Snapshot() BlobSnapshot {
	return BlobSnapshot{
		Puts:          c.Puts.Load(),
		Gets:          c.Gets.Load(),
		Stats:         c.Stats.Load(),
		Deletes:       c.Deletes.Load(),
		Lists:         c.Lists.Load(),
		Retries:       c.Retries.Load(),
		Errors:        c.Errors.Load(),
		BytesUp:       c.BytesUp.Load(),
		BytesDown:     c.BytesDown.Load(),
		Hydrations:    c.Hydrations.Load(),
		DiskEvictions: c.DiskEvictions.Load(),
	}
}

// ClusterCounters are the live observability counters of one cluster
// node: how often it forwarded requests to the digest-range owner, how
// often forwarding failed and it fell back to serving from the shared
// bucket, and how often the one-hop loop guard fired. All fields are
// updated atomically; a zero value is ready to use.
type ClusterCounters struct {
	Forwards      atomic.Int64
	ForwardErrors atomic.Int64
	Fallbacks     atomic.Int64
	LoopGuarded   atomic.Int64
}

// ClusterSnapshot is a point-in-time JSON-friendly copy of the
// counters, as surfaced in /stats.
type ClusterSnapshot struct {
	Forwards      int64 `json:"forwards"`
	ForwardErrors int64 `json:"forward_errors"`
	Fallbacks     int64 `json:"fallbacks"`
	LoopGuarded   int64 `json:"loop_guarded"`
}

// Snapshot copies the counters.
func (c *ClusterCounters) Snapshot() ClusterSnapshot {
	return ClusterSnapshot{
		Forwards:      c.Forwards.Load(),
		ForwardErrors: c.ForwardErrors.Load(),
		Fallbacks:     c.Fallbacks.Load(),
		LoopGuarded:   c.LoopGuarded.Load(),
	}
}
