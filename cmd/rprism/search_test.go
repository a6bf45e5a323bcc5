package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	rprism "repro"
	"repro/internal/corpus"
	"repro/internal/subjects"
	"repro/internal/trace"
)

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	out, _ := io.ReadAll(r)
	if runErr != nil {
		t.Fatalf("command failed: %v\n%s", runErr, out)
	}
	return string(out)
}

// searchFixtureDir populates a corpus directory with 2 families × 3
// variants and returns (dir, digest of fam01-var00).
func searchFixtureDir(t *testing.T) (string, trace.Digest) {
	t.Helper()
	dir := t.TempDir()
	store, err := corpus.New(dir, corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var query trace.Digest
	for fam := 1; fam <= 2; fam++ {
		for v := 0; v < 3; v++ {
			id, _, err := store.Put(subjects.GenCorpusTrace(fam, v, 80))
			if err != nil {
				t.Fatal(err)
			}
			if fam == 1 && v == 0 {
				query = id
			}
		}
	}
	return dir, query
}

func TestCmdSearchLocal(t *testing.T) {
	dir, query := searchFixtureDir(t)
	out := captureStdout(t, func() error {
		return cmdSearch(context.Background(), []string{query.String(), "-dir", dir, "-k", "2"})
	})
	if !strings.Contains(out, "top 2 nearest of 5 stored traces") {
		t.Errorf("unexpected header:\n%s", out)
	}
	if !strings.Contains(out, "fam01-var01") || !strings.Contains(out, "fam01-var02") {
		t.Errorf("nearest hits are not the query's family:\n%s", out)
	}
	// The same query by short prefix, as JSON.
	raw := captureStdout(t, func() error {
		return cmdSearch(context.Background(), []string{query.String()[:10], "-dir", dir, "-k", "2", "-json"})
	})
	var res rprism.SearchResult
	if err := json.Unmarshal([]byte(raw), &res); err != nil {
		t.Fatalf("-json output is not a SearchResult: %v\n%s", err, raw)
	}
	if res.Query != query.String() || len(res.Hits) != 2 {
		t.Errorf("result = %+v", res)
	}
}

func TestCmdSearchValidation(t *testing.T) {
	if err := cmdSearch(context.Background(), nil); err == nil || !strings.Contains(err.Error(), "reference") {
		t.Errorf("missing ref: err = %v", err)
	}
	if err := cmdSearch(context.Background(), []string{"abcd1234"}); err == nil || !strings.Contains(err.Error(), "-dir") {
		t.Errorf("missing mode: err = %v", err)
	}
}

func TestCmdFlakyLocalFiles(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for v := 0; v < 3; v++ {
		tr := subjects.GenCorpusTrace(1, v, 60)
		p := filepath.Join(dir, tr.Name+".trace")
		if err := tr.Save(p); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	out := captureStdout(t, func() error {
		return cmdFlaky(context.Background(), paths)
	})
	if !strings.Contains(out, "3 runs, 3 pairwise diffs") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

func TestCmdFlakyCorpusRefs(t *testing.T) {
	dir, query := searchFixtureDir(t)
	out := captureStdout(t, func() error {
		return cmdFlaky(context.Background(), []string{query.String()[:12], "-dir", dir,
			// fam01-var01 and fam01-var02 by full digest.
			subjects.GenCorpusTrace(1, 1, 80).ComputeDigest().String(),
			subjects.GenCorpusTrace(1, 2, 80).ComputeDigest().String()})
	})
	if !strings.Contains(out, "3 runs") {
		t.Errorf("unexpected output:\n%s", out)
	}
	if err := cmdFlaky(context.Background(), []string{"onlyone"}); err == nil {
		t.Error("single run accepted")
	}
}
