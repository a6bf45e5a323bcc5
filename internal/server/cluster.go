package server

import (
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Cluster-mode request routing. A cluster-enabled server owns a
// digest range of the shared corpus (see internal/cluster): requests
// referencing a full digest another node owns are forwarded there —
// the owner holds the warm caches — while session references, short
// prefixes and unowned refs are served locally. Forwarding is one hop
// (X-Rprism-Forwarded guards loops) and fully buffered, so when the
// owner is down the untouched ResponseWriter falls back to a local
// answer served out of the shared bucket: slower, but byte-identical,
// because every admitted trace is durable in the bucket before any
// node serves it.

// maybeForward forwards the request to the digest owner when that is
// another node, writing the peer's buffered response and returning
// true. Returning false means "serve locally": this node owns the
// digest, the refs pin the request here (sessions, prefixes), the
// request already took its hop, or the owner is down (bucket
// fallback).
func (s *Server) maybeForward(w http.ResponseWriter, r *http.Request, body []byte, refs ...string) bool {
	if s.cl == nil {
		return false
	}
	id, ok := forwardDigest(refs)
	if !ok {
		return false
	}
	owner := s.cl.Owner(id)
	if owner.ID == s.cl.Self().ID {
		return false
	}
	if r.Header.Get(cluster.ForwardedHeader) != "" {
		// One hop only: a second forward means peer configs disagree;
		// serving locally degrades to a bucket read instead of a loop.
		s.cl.Counters().LoopGuarded.Add(1)
		return false
	}
	res, err := s.cl.Forward(r.Context(), owner, r, body)
	if err != nil {
		s.cl.Counters().Fallbacks.Add(1)
		return false
	}
	res.WriteTo(w, owner.ID)
	return true
}

// forwardDigest picks the digest that decides ownership: the first
// ref that is a full hex digest. Session references and short
// prefixes return false — they resolve against local state and pin
// the request to this node.
func forwardDigest(refs []string) (trace.Digest, bool) {
	for _, ref := range refs {
		if d, err := trace.ParseDigest(ref); err == nil {
			return d, true
		}
	}
	return trace.Digest{}, false
}

// nodeID names this node in responses ("" outside cluster mode).
func (s *Server) nodeID() string {
	if s.cl == nil {
		return ""
	}
	return s.cl.Self().ID
}

// ---- cluster-wide stats ----

// ClusterInfo is the per-node cluster block inside /stats.
type ClusterInfo struct {
	NodeID string `json:"node_id"`
	Peers  int    `json:"peers"`
	metrics.ClusterSnapshot
}

// ClusterPeerStats is one node's contribution to GET /cluster/stats.
type ClusterPeerStats struct {
	cluster.PeerHealth
	Traces       int   `json:"traces,omitempty"`        // local disk-tier traces
	RemoteTraces int   `json:"remote_traces,omitempty"` // known bucket-only traces
	OpenSessions int   `json:"open_sessions,omitempty"`
	Requests     int64 `json:"requests,omitempty"`
	Forwards     int64 `json:"forwards,omitempty"`
	Fallbacks    int64 `json:"fallbacks,omitempty"`
}

// ClusterStatsResponse aggregates /stats across the ring.
type ClusterStatsResponse struct {
	Self           string             `json:"self"`
	Nodes          int                `json:"nodes"`
	HealthyNodes   int                `json:"healthy_nodes"`
	CorpusTraces   int                `json:"corpus_traces"` // every tier, bucket included
	TotalRequests  int64              `json:"total_requests"`
	TotalForwards  int64              `json:"total_forwards"`
	TotalFallbacks int64              `json:"total_fallbacks"`
	Peers          []ClusterPeerStats `json:"peers"`
}

// handleClusterStats fans GET /stats out to every peer and merges:
// per-peer health plus corpus/request/forwarding counts, and cluster
// totals. A down peer appears unhealthy with zeroed stats rather than
// failing the aggregation.
func (s *Server) handleClusterStats(w http.ResponseWriter, r *http.Request) {
	if s.cl == nil {
		writeErr(w, http.StatusNotFound, CodeNotFound,
			errors.New("not running in cluster mode (start rprism-serve with -peers and -node-id)"))
		return
	}
	resp := ClusterStatsResponse{Self: s.cl.Self().ID}
	health := s.cl.ProbeAll(r.Context())
	resp.Nodes = len(health)
	for _, h := range health {
		ps := ClusterPeerStats{PeerHealth: h}
		var st *StatsResponse
		if h.Self {
			local := s.statsResponse()
			st = &local
		} else if h.Healthy {
			if raw, err := s.cl.FetchStats(r.Context(), h.Peer); err == nil {
				var decoded StatsResponse
				if json.Unmarshal(raw, &decoded) == nil {
					st = &decoded
				}
			} else {
				ps.Healthy = false
				ps.Error = err.Error()
			}
		}
		if st != nil {
			ps.Traces = st.Corpus.Traces
			ps.RemoteTraces = st.Corpus.RemoteTraces
			ps.OpenSessions = len(st.Sessions)
			ps.Requests = st.Server.Requests
			if st.Cluster != nil {
				ps.Forwards = st.Cluster.Forwards
				ps.Fallbacks = st.Cluster.Fallbacks
			}
			resp.TotalRequests += ps.Requests
			resp.TotalForwards += ps.Forwards
			resp.TotalFallbacks += ps.Fallbacks
		}
		if ps.Healthy {
			resp.HealthyNodes++
		}
		resp.Peers = append(resp.Peers, ps)
	}
	// The cluster-wide corpus size comes from the shared bucket (plus
	// anything only local to this node), not from summing per-node
	// counts — those overlap wherever traces were hydrated.
	if all, err := s.store.ListAll(r.Context()); err == nil {
		resp.CorpusTraces = len(all)
	} else {
		resp.CorpusTraces = s.store.Len()
	}
	writeJSON(w, http.StatusOK, resp)
}
