package rprism

import (
	"context"
	"fmt"

	"repro/internal/corpus"
)

// ClusterOptions tune the corpus partition.
type ClusterOptions struct {
	// Threshold is the minimum estimated Jaccard similarity (MinHash slot
	// agreement) for two traces to join one cluster (default 0.5, the
	// S-curve threshold of the sketches' LSH banding).
	Threshold float64
}

// ClusterMember is one trace of a cluster.
type ClusterMember struct {
	ID      string `json:"id"`
	Name    string `json:"name,omitempty"`
	Entries int    `json:"entries"`
}

// Cluster is one group of mutually similar stored traces.
type Cluster struct {
	Size    int             `json:"size"`
	Members []ClusterMember `json:"members"`
}

// ClusterResult partitions the corpus by sketch similarity.
type ClusterResult struct {
	Traces     int               `json:"traces"`
	Threshold  float64           `json:"threshold"`
	Singletons int               `json:"singletons"` // traces similar to nothing stored
	Clusters   []Cluster         `json:"clusters"`
	Index      corpus.IndexStats `json:"index"`
}

// ClusterCorpus partitions the stored traces into similarity clusters:
// a shared LSH band key proposes candidate pairs, estimated Jaccard ≥
// the threshold confirms them, and confirmed pairs are closed
// transitively. No exact diffs run — this is the coarse map of the
// corpus ("which runs behave alike"), with Search as the exact lens on
// any one neighborhood.
func (e *Engine) ClusterCorpus(ctx context.Context, opts ClusterOptions) (*ClusterResult, error) {
	if e.store == nil {
		return nil, fmt.Errorf("rprism: ClusterCorpus on an engine without a corpus (construct it WithCorpus)")
	}
	if opts.Threshold <= 0 {
		opts.Threshold = 0.5
	}
	ctx, release, err := e.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	groups, err := e.store.Clusters(opts.Threshold)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := &ClusterResult{
		Threshold: opts.Threshold,
		Clusters:  []Cluster{},
		Index:     e.store.IndexStats(),
	}
	for _, g := range groups {
		c := Cluster{Size: len(g)}
		for _, id := range g {
			m := ClusterMember{ID: id.String()}
			if meta, err := e.store.Meta(id); err == nil {
				m.Name = meta.Name
				m.Entries = meta.Entries
			}
			c.Members = append(c.Members, m)
		}
		out.Traces += len(g)
		if len(g) == 1 {
			out.Singletons++
		}
		out.Clusters = append(out.Clusters, c)
	}
	return out, nil
}

func init() {
	RegisterAnalysis(AnalysisInfo{
		Name:   "cluster",
		Doc:    "corpus partition by sketch similarity: LSH-proposed pairs confirmed by estimated Jaccard, closed transitively",
		Params: "threshold (estimated Jaccard in (0,1], default 0.5)",
	}, func(ctx context.Context, e *Engine, req AnalysisRequest) (any, error) {
		p, err := decodeParams[struct {
			Threshold *float64 `json:"threshold"`
		}](req.Params)
		if err != nil {
			return nil, err
		}
		var opts ClusterOptions
		if p.Threshold != nil {
			opts.Threshold = *p.Threshold
		}
		return e.ClusterCorpus(ctx, opts)
	})
}
