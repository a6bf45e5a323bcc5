package main

// serve.go starts rprism-serve inside the benchmark process, the way
// cmd/rprism-serve builds it, and times set-up: empty directory to the
// first correct answer, with the starting corpus uploaded over HTTP.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	rprism "repro"
	"repro/internal/blob"
	"repro/internal/corpus"
	"repro/internal/server"
)

// node is one running server on a loopback port.
type node struct {
	dir    string
	bucket *blob.Mem // nil without a blob tier
	store  *corpus.Store
	eng    *rprism.Engine
	srv    *server.Server
	url    string
	http   *http.Server
	done   chan error
}

// startNode opens a store in dir and serves it on 127.0.0.1. wrap, when
// non-nil, interposes on the server's handler (the traced run's
// timing wrapper); bucket, when non-nil, replaces the workload's
// in-memory bucket (the traced run's timed backend).
func startNode(dir string, w *workload, wrap func(*node, http.Handler) http.Handler, bucket func(blob.Backend) blob.Backend) (*node, error) {
	opts := w.store
	var mem *blob.Mem
	if w.blob {
		mem = blob.NewMem()
		opts.Blob = mem
		if bucket != nil {
			opts.Blob = bucket(mem)
		}
	}
	store, err := corpus.New(dir, opts)
	if err != nil {
		return nil, err
	}
	// cmd/rprism-serve's defaults (-workers GOMAXPROCS), except -parallel
	// 1: with two clients on two cores, the default lets one analysis
	// claim the second worker slot and queue the other client behind it,
	// which halves throughput and makes it swing from seed to seed
	// (README.md).
	workers := runtime.GOMAXPROCS(0)
	eng := rprism.NewEngine(rprism.WithCorpus(store),
		rprism.WithWorkers(workers),
		rprism.WithDiffParallelism(1),
		rprism.WithSentinelOptions(rprism.SentinelOptions{}))
	srv := server.New(eng, server.Options{Workers: workers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{dir: dir, bucket: mem, store: store, eng: eng, srv: srv,
		url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	var h http.Handler = srv.Handler()
	if wrap != nil {
		h = wrap(n, h)
	}
	// The http.Server that server.Serve builds, with the handler exposed.
	n.http = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { n.done <- n.http.Serve(ln) }()
	return n, nil
}

// stop shuts the server down and waits for it, as server.Serve does.
func (n *node) stop() error {
	n.eng.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err := n.http.Shutdown(ctx)
	if serr := <-n.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// client is the benchmark's HTTP client: keep-alive connections, one
// per closed-loop client.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients + 1,
		DisableCompression:  true,
	}}
}

// setUp starts a node on an empty directory, uploads the starting
// corpus from clients goroutines, and sends the first analysis request;
// it returns once that answer checks out, with the elapsed time.
func setUp(root string, w *workload, hc *http.Client, o *oracle,
	wrap func(*node, http.Handler) http.Handler, bucket func(blob.Backend) blob.Backend) (*node, time.Duration, error) {
	dir, err := os.MkdirTemp(root, "corpus-")
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	n, err := startNode(dir, w, wrap, bucket)
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*node, time.Duration, error) {
		n.stop()
		return nil, 0, err
	}
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(w.corpus); i += clients {
				u := w.corpus[i]
				body, status, err := do(hc, http.MethodPut, n.url+"/traces", u.body, 0)
				if err == nil {
					err = o.checkPut(status, body, u)
				}
				if err != nil {
					errs[c] = fmt.Errorf("uploading corpus trace %d: %w", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fail(err)
		}
	}
	r := w.first()
	body, status, err := do(hc, http.MethodPost, n.url+r.path(), r.body, 0)
	if err == nil {
		err = o.check(r, status, body, nil)
	}
	if err != nil {
		return fail(fmt.Errorf("first request: %w", err))
	}
	return n, time.Since(start), nil
}

// do sends one request and reads the whole response. reqID, when
// non-zero, travels in X-Rprism-Request-Id for the traced run.
func do(hc *http.Client, method, url string, body []byte, reqID int64) ([]byte, int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if reqID != 0 {
		req.Header.Set(requestIDHeader, fmt.Sprint(reqID))
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return out, resp.StatusCode, err
}
