package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	rprism "repro"
	"repro/internal/subjects"
)

func TestIndexStatsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	for fam := 1; fam <= 2; fam++ {
		for v := 0; v < 3; v++ {
			upload(t, ts, subjects.GenCorpusTrace(fam, v, 80))
		}
	}
	var stats struct {
		Sketches int `json:"sketches"`
		Bands    int `json:"bands"`
		Computed int `json:"sketch_computed"`
	}
	status, raw := doJSON(t, http.MethodGet, ts.URL+"/index/stats", nil, &stats)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if stats.Sketches != 6 || stats.Bands == 0 || stats.Computed != 6 {
		t.Errorf("index stats = %+v (raw %s)", stats, raw)
	}
}

func TestRunSearchEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	var query string
	for fam := 1; fam <= 2; fam++ {
		for v := 0; v < 4; v++ {
			info := upload(t, ts, subjects.GenCorpusTrace(fam, v, 100))
			if fam == 1 && v == 0 {
				query = info.ID
			}
		}
	}
	body, _ := json.Marshal(RunRequest{
		Traces: map[string]string{"query": query},
		Params: json.RawMessage(`{"k": 3}`),
	})
	var out struct {
		Analysis string              `json:"analysis"`
		Result   rprism.SearchResult `json:"result"`
	}
	status, raw := doJSON(t, http.MethodPost, ts.URL+"/run/search", body, &out)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if out.Analysis != "search" || len(out.Result.Hits) != 3 {
		t.Fatalf("response = %s", raw)
	}
	if out.Result.Query != query || out.Result.Corpus != 7 {
		t.Errorf("result = %+v", out.Result)
	}
	// The nearest hits are the query's own family.
	for _, h := range out.Result.Hits {
		if !strings.HasPrefix(h.Name, "fam01-") {
			t.Errorf("hit %s not from the query family", h.Name)
		}
	}
}

func TestRunFlakyEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	ids := map[string]string{}
	for v := 0; v < 3; v++ {
		info := upload(t, ts, subjects.GenCorpusTrace(1, v, 80))
		ids[fmt.Sprintf("run%03d", v)] = info.ID
	}
	body, _ := json.Marshal(RunRequest{Traces: ids})
	var out struct {
		Result rprism.FlakyResult `json:"result"`
	}
	status, raw := doJSON(t, http.MethodPost, ts.URL+"/run/flaky", body, &out)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if out.Result.Runs != 3 || len(out.Result.Pairs) != 3 {
		t.Errorf("flaky result = %s", raw)
	}
}

func TestShortPrefixRefResolves(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	good, bad := tracePair(t)
	gi := upload(t, ts, good)
	bi := upload(t, ts, bad)
	var full, short DiffResponse
	if status, raw := runDiff(t, ts.URL, gi.ID, bi.ID, 0, &full); status != http.StatusOK {
		t.Fatalf("full-digest diff: %d %s", status, raw)
	}
	if status, raw := runDiff(t, ts.URL, gi.ID[:10], bi.ID[:10], 0, &short); status != http.StatusOK {
		t.Fatalf("short-prefix diff: %d %s", status, raw)
	}
	// Left/Right echo the request refs verbatim, so compare the diff body.
	if full.NumDiffs != short.NumDiffs || full.DiffLeft != short.DiffLeft || full.DiffRight != short.DiffRight {
		t.Errorf("short-prefix diff diverges from full-digest diff:\nfull  %+v\nshort %+v", full, short)
	}
}

func TestUnknownDigestListsNearMisses(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	info := upload(t, ts, subjects.GenCorpusTrace(1, 0, 60))
	// Same 4-hex prefix, rest zeroed: unknown but near.
	near := info.ID[:4] + strings.Repeat("0", 60)
	if near == info.ID {
		t.Skip("pathological digest")
	}
	status, raw := runDiff(t, ts.URL, near, info.ID, 0, nil)
	if status != http.StatusNotFound {
		t.Fatalf("status %d, want 404: %s", status, raw)
	}
	if !strings.Contains(raw, info.ID[:12]) {
		t.Errorf("404 does not suggest the near-miss digest: %s", raw)
	}
}
