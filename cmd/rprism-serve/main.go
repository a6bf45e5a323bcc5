// Command rprism-serve runs the trace-analysis service: a content-
// addressed corpus of uploaded traces plus the views/diff/regression
// pipeline behind an HTTP JSON API.
//
//	rprism-serve -addr :8372 -dir corpus -workers 8
//
// Quickstart:
//
//	rprism trace -src prog.mj -out run.trace
//	curl -T run.trace http://localhost:8372/traces        # -> {"id": "..."}
//	curl -d '{"traces": {"left": "ID1", "right": "ID2"}}' http://localhost:8372/run/diff
//
// With -blob-bucket the corpus gains a third tier behind memory and
// disk: every stored trace is written through to an S3-compatible
// object store (or fs://dir, or mem:// for tests) and traces evicted
// from the -disk-cache bound hydrate back transparently on access.
// With -peers and -node-id several rprism-serve processes sharing one
// bucket form a digest-sharded cluster: each node owns a contiguous
// range of digest space, requests for another node's traces forward
// there, and a dead node degrades to slower bucket reads instead of
// errors. Every blob/cluster flag also reads an RPRISM_* environment
// variable (flag wins), so a fleet can share one env file:
//
//	RPRISM_BLOB_BUCKET=corpus RPRISM_BLOB_ENDPOINT=http://minio:9000 \
//	RPRISM_BLOB_ACCESS_KEY=... RPRISM_BLOB_SECRET_KEY=... \
//	RPRISM_PEERS=a=http://n1:8372,b=http://n2:8372 \
//	RPRISM_NODE_ID=a rprism-serve -dir /var/lib/rprism
//
// The process shuts down gracefully on SIGINT/SIGTERM: the listener
// closes immediately and in-flight analyses get a grace period.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	rprism "repro"
	"repro/internal/blob"
	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/server"
)

// envOr returns the flag default: $key when set, else def. Flags
// resolved this way read the environment at startup but still yield to
// an explicit command-line value.
func envOr(key, def string) string {
	if v, ok := os.LookupEnv(key); ok {
		return v
	}
	return def
}

func envOrInt(key string, def int) int {
	if v, ok := os.LookupEnv(key); ok {
		var n int
		if _, err := fmt.Sscanf(v, "%d", &n); err == nil {
			return n
		}
	}
	return def
}

// serveConfig is everything run() needs, flags and environment merged.
type serveConfig struct {
	addr       string
	dir        string
	workers    int
	parallel   int
	traceCache int
	webCache   int
	segLimit   int
	verify     bool
	grace      time.Duration
	reqTimeout time.Duration
	debounce   time.Duration
	ring       int

	blob      blob.Config
	blobPfx   string
	diskCache int
	peers     string
	nodeID    string
}

func main() {
	var cfg serveConfig
	flag.StringVar(&cfg.addr, "addr", ":8372", "listen address")
	flag.StringVar(&cfg.dir, "dir", "corpus", "corpus directory (created if missing)")
	flag.IntVar(&cfg.workers, "workers", runtime.GOMAXPROCS(0), "max concurrent analyses")
	flag.IntVar(&cfg.parallel, "parallel", 0, "intra-diff worker goroutines per analysis, clamped to free worker slots (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.traceCache, "trace-cache", 16, "decoded traces kept in memory")
	flag.IntVar(&cfg.webCache, "web-cache", 8, "built view webs kept in memory")
	flag.IntVar(&cfg.segLimit, "segment-limit", 1<<16, "entries per on-disk segment")
	flag.BoolVar(&cfg.verify, "verify", false, "verify digests of traces loaded from disk")
	flag.DurationVar(&cfg.grace, "grace", 15*time.Second, "shutdown grace period")
	flag.DurationVar(&cfg.reqTimeout, "request-timeout", 0, "kill analyses exceeding this deadline (0 = none)")
	flag.DurationVar(&cfg.debounce, "watch-debounce", 0, "quiet period coalescing appends before a watch re-evaluates (0 = default)")
	flag.IntVar(&cfg.ring, "watch-ring", 0, "events buffered per watch for SSE replay (0 = default)")

	flag.StringVar(&cfg.blob.Bucket, "blob-bucket", envOr("RPRISM_BLOB_BUCKET", ""),
		"object-store bucket backing the corpus (\"\" = disk only; also fs://dir or mem://) [$RPRISM_BLOB_BUCKET]")
	flag.StringVar(&cfg.blob.Endpoint, "blob-endpoint", envOr("RPRISM_BLOB_ENDPOINT", ""),
		"S3-compatible endpoint URL, e.g. http://minio:9000 [$RPRISM_BLOB_ENDPOINT]")
	flag.StringVar(&cfg.blob.AccessKey, "blob-access-key", envOr("RPRISM_BLOB_ACCESS_KEY", ""),
		"S3 access key (empty = unsigned requests) [$RPRISM_BLOB_ACCESS_KEY]")
	flag.StringVar(&cfg.blob.SecretKey, "blob-secret-key", envOr("RPRISM_BLOB_SECRET_KEY", ""),
		"S3 secret key [$RPRISM_BLOB_SECRET_KEY]")
	flag.StringVar(&cfg.blob.Region, "blob-region", envOr("RPRISM_BLOB_REGION", "us-east-1"),
		"S3 signing region [$RPRISM_BLOB_REGION]")
	flag.StringVar(&cfg.blobPfx, "blob-prefix", envOr("RPRISM_BLOB_PREFIX", ""),
		"key prefix inside the bucket, letting clusters share one bucket [$RPRISM_BLOB_PREFIX]")
	flag.IntVar(&cfg.diskCache, "disk-cache", envOrInt("RPRISM_DISK_CACHE", 0),
		"max traces kept on local disk when a blob bucket backs the corpus (0 = unbounded) [$RPRISM_DISK_CACHE]")
	flag.StringVar(&cfg.peers, "peers", envOr("RPRISM_PEERS", ""),
		"cluster membership as id=url,... including this node [$RPRISM_PEERS]")
	flag.StringVar(&cfg.nodeID, "node-id", envOr("RPRISM_NODE_ID", ""),
		"this node's id within -peers [$RPRISM_NODE_ID]")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "rprism-serve:", err)
		os.Exit(1)
	}
}

func run(cfg serveConfig) error {
	backend, err := cfg.blob.Open()
	if err != nil {
		return fmt.Errorf("opening blob backend: %w", err)
	}
	store, err := corpus.New(cfg.dir, corpus.Options{
		TraceCacheSize:  cfg.traceCache,
		WebCacheSize:    cfg.webCache,
		SegmentLimit:    cfg.segLimit,
		VerifyOnLoad:    cfg.verify,
		Blob:            backend,
		BlobPrefix:      cfg.blobPfx,
		DiskCacheTraces: cfg.diskCache,
	})
	if err != nil {
		return err
	}

	var cl *cluster.Cluster
	if cfg.peers != "" || cfg.nodeID != "" {
		peers, err := cluster.ParsePeers(cfg.peers)
		if err != nil {
			return fmt.Errorf("-peers: %w", err)
		}
		if cfg.nodeID == "" {
			return fmt.Errorf("-peers requires -node-id (or RPRISM_NODE_ID) naming this node")
		}
		if cl, err = cluster.New(cluster.Options{Self: cfg.nodeID, Peers: peers}); err != nil {
			return err
		}
		if backend == nil {
			// Legal but fragile: without a shared bucket a dead peer's
			// traces are unreachable instead of degrading to bucket reads.
			log.Printf("rprism-serve: warning: cluster mode without -blob-bucket has no fallback tier")
		}
	}

	// One Engine per process: the server dispatches every analysis
	// request (POST /run/{analysis}) through it. The
	// engine's own worker budget mirrors the server pool so intra-diff
	// workers are clamped to the same slots the requests occupy: a lone
	// big diff fans out across the machine, a full queue degrades every
	// diff toward serial instead of oversubscribing.
	eng := rprism.NewEngine(rprism.WithCorpus(store),
		rprism.WithWorkers(cfg.workers),
		rprism.WithDiffParallelism(cfg.parallel),
		rprism.WithSentinelOptions(rprism.SentinelOptions{Debounce: cfg.debounce, RingSize: cfg.ring}))
	srv := server.New(eng, server.Options{
		Workers:        cfg.workers,
		RequestTimeout: cfg.reqTimeout,
		Cluster:        cl,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	node := ""
	if cl != nil {
		node = fmt.Sprintf(", node %s of %d", cfg.nodeID, len(cl.Peers()))
	}
	log.Printf("rprism-serve: listening on %s (corpus %s, %d traces, %d workers, %d analyses%s)",
		cfg.addr, cfg.dir, store.Len(), cfg.workers, len(rprism.Analyses()), node)
	err = srv.ListenAndServe(ctx, cfg.addr, cfg.grace)
	log.Printf("rprism-serve: shut down")
	return err
}
