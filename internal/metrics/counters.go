// Package metrics holds the runtime observability counters of the
// long-running subsystems — caches, the blob tier, cluster forwarding,
// and the regression sentinel — with their JSON snapshots for /stats.
// Every counter is atomic, and a zero value is ready to use.
package metrics

import "sync/atomic"

// SentinelCounters are the live observability counters of the
// always-on regression sentinel: how many watches exist, how much
// re-diff work the incremental cache is actually doing (the dirty-pair
// ratio is the number the O(dirty pairs) claim stands on), and how many
// divergence events were raised and delivered. All fields are updated
// atomically; a zero value is ready to use.
type SentinelCounters struct {
	WatchesOpened     atomic.Int64
	WatchesClosed     atomic.Int64
	Evaluations       atomic.Int64
	Coalesced         atomic.Int64
	DirtyPairs        atomic.Int64
	TotalPairs        atomic.Int64
	Divergences       atomic.Int64
	EventsEmitted     atomic.Int64
	WebhookDeliveries atomic.Int64
	WebhookFailures   atomic.Int64
}

// SentinelSnapshot is a point-in-time JSON-friendly copy of the
// counters, as surfaced in /stats.
type SentinelSnapshot struct {
	Watches           int64   `json:"watches"`
	WatchesOpened     int64   `json:"watches_opened"`
	Evaluations       int64   `json:"evaluations"`
	Coalesced         int64   `json:"evaluations_coalesced"`
	DirtyPairs        int64   `json:"dirty_pairs"`
	TotalPairs        int64   `json:"total_pairs"`
	DirtyPairRatio    float64 `json:"dirty_pair_ratio"`
	Divergences       int64   `json:"divergences"`
	EventsEmitted     int64   `json:"events_emitted"`
	WebhookDeliveries int64   `json:"webhook_deliveries"`
	WebhookFailures   int64   `json:"webhook_failures"`
}

// Snapshot copies the counters. Watches is derived: opened minus
// closed, i.e. the currently attached watch count.
func (c *SentinelCounters) Snapshot() SentinelSnapshot {
	s := SentinelSnapshot{
		Watches:           c.WatchesOpened.Load() - c.WatchesClosed.Load(),
		WatchesOpened:     c.WatchesOpened.Load(),
		Evaluations:       c.Evaluations.Load(),
		Coalesced:         c.Coalesced.Load(),
		DirtyPairs:        c.DirtyPairs.Load(),
		TotalPairs:        c.TotalPairs.Load(),
		Divergences:       c.Divergences.Load(),
		EventsEmitted:     c.EventsEmitted.Load(),
		WebhookDeliveries: c.WebhookDeliveries.Load(),
		WebhookFailures:   c.WebhookFailures.Load(),
	}
	if s.TotalPairs > 0 {
		s.DirtyPairRatio = float64(s.DirtyPairs) / float64(s.TotalPairs)
	}
	return s
}
