package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	rprism "repro"
	"repro/internal/blob"
	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/trace"
)

// The cluster end-to-end suite: three rprism-serve nodes share one
// in-process S3 stub bucket, each with a disk tier too small for the
// whole corpus, and requests land on arbitrary nodes. Run under -race
// in CI (the cluster-e2e job runs it at -cpu=1,2,4).

// clusterNode is one running rprism-serve instance of the test ring.
type clusterNode struct {
	id    string
	url   string
	srv   *Server
	store *corpus.Store
	kill  context.CancelFunc
	done  chan struct{} // closed when Serve returns
}

// startCluster boots n nodes over one shared S3-stub bucket. Every
// node's disk tier is capped at diskCache decoded traces, so a corpus
// larger than that only fits in the bucket.
func startCluster(t *testing.T, n, diskCache int) []*clusterNode {
	t.Helper()
	stub := blob.NewS3Stub("corpus", "test-access", "test-secret", "us-east-1")
	stubSrv := httptest.NewServer(stub)
	t.Cleanup(stubSrv.Close)

	// Listeners first: the ring config needs every node's URL before
	// any node starts.
	lns := make([]net.Listener, n)
	peers := make([]cluster.Peer, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = cluster.Peer{
			ID:  string(rune('a' + i)),
			URL: "http://" + ln.Addr().String(),
		}
	}

	nodes := make([]*clusterNode, n)
	for i := range nodes {
		backend, err := blob.Config{
			Bucket:    "corpus",
			Endpoint:  stubSrv.URL,
			AccessKey: "test-access",
			SecretKey: "test-secret",
			Region:    "us-east-1",
		}.Open()
		if err != nil {
			t.Fatal(err)
		}
		store, err := corpus.New(t.TempDir(), corpus.Options{
			Blob:            backend,
			DiskCacheTraces: diskCache,
		})
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.New(cluster.Options{Self: peers[i].ID, Peers: peers})
		if err != nil {
			t.Fatal(err)
		}
		srv := New(rprism.NewEngine(rprism.WithCorpus(store)), Options{Cluster: cl})
		ctx, cancel := context.WithCancel(context.Background())
		node := &clusterNode{
			id:    peers[i].ID,
			url:   peers[i].URL,
			srv:   srv,
			store: store,
			kill:  cancel,
			done:  make(chan struct{}),
		}
		ln := lns[i]
		go func() {
			_ = srv.Serve(ctx, ln, 100*time.Millisecond)
			close(node.done)
		}()
		t.Cleanup(func() {
			cancel()
			<-node.done
		})
		nodes[i] = node
	}
	// Every node answers /healthz before the suite proceeds.
	for _, node := range nodes {
		waitHealthy(t, node.url)
	}
	return nodes
}

func waitHealthy(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("node at %s never became healthy", url)
}

// killNode shuts one node down and waits until its port refuses
// connections, so a follow-up forward fails at the transport layer
// instead of racing the shutdown.
func killNode(t *testing.T, node *clusterNode) {
	t.Helper()
	node.kill()
	<-node.done
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(node.url + "/healthz")
		if err != nil {
			return
		}
		resp.Body.Close()
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("node %s still answering after shutdown", node.id)
}

// mkClusterTrace builds a small deterministic trace; name and seed vary
// the digest, overlap keeps diff pairs comparable.
func mkClusterTrace(name string, seed, n int) *trace.Trace {
	tr := trace.New(name)
	for i := 0; i < n; i++ {
		m := fmt.Sprintf("Shared.m%d/0", (i*7+seed)%23)
		tr.Append(trace.ThreadID(1+i%3), m, trace.Repr{}, trace.Event{Kind: trace.KindCall, Member: m})
	}
	return tr
}

// ownerOf names the node owning a digest (the ring is identical on
// every node, so any node's view answers).
func ownerOf(nodes []*clusterNode, id string) string {
	d, err := trace.ParseDigest(id)
	if err != nil {
		return ""
	}
	return nodes[0].srv.cl.Owner(d).ID
}

// TestClusterServesOversizedCorpus: six traces into a ring whose nodes
// each cache two on disk — the corpus only fits in the bucket — and
// every trace stays fully readable from every node, with /traces on
// each node listing the whole shared corpus.
func TestClusterServesOversizedCorpus(t *testing.T) {
	nodes := startCluster(t, 3, 2)
	var ids []string
	for i := 0; i < 6; i++ {
		tr := mkClusterTrace(fmt.Sprintf("trace-%d", i), i, 60)
		node := nodes[i%len(nodes)]
		var info TraceInfo
		status, raw := doJSON(t, http.MethodPut, node.url+"/traces", rsegBytes(t, tr), &info)
		if status != http.StatusCreated {
			t.Fatalf("upload %d via %s: status %d: %s", i, node.id, status, raw)
		}
		ids = append(ids, info.ID)
	}

	for _, node := range nodes {
		var listed []TraceInfo
		if status, raw := doJSON(t, http.MethodGet, node.url+"/traces", nil, &listed); status != http.StatusOK {
			t.Fatalf("list via %s: status %d: %s", node.id, status, raw)
		} else if len(listed) != len(ids) {
			t.Fatalf("node %s lists %d traces, want %d: %s", node.id, len(listed), len(ids), raw)
		}
		for _, id := range ids {
			req, _ := http.NewRequest(http.MethodGet, node.url+"/traces/"+id, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			served := resp.Header.Get(cluster.NodeHeader)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s via node %s: status %d", id[:8], node.id, resp.StatusCode)
			}
			// Full-digest requests are served by the ring owner, whichever
			// node took the request.
			if want := ownerOf(nodes, id); served != want {
				t.Fatalf("GET %s via node %s served by %q, want owner %q", id[:8], node.id, served, want)
			}
		}
		if local := node.store.LocalLen(); local > 2 {
			t.Fatalf("node %s holds %d traces on disk, cap is 2", node.id, local)
		}
	}

	// Views need the full decoded trace, not just metadata: force one
	// through a non-owner so the owner (or a hydration) answers.
	var vs ViewsSummary
	if status, raw := doJSON(t, http.MethodGet, nodes[0].url+"/traces/"+ids[5]+"/views", nil, &vs); status != http.StatusOK {
		t.Fatalf("views across nodes: status %d: %s", status, raw)
	} else if vs.Counts.Total == 0 {
		t.Fatalf("views across nodes: empty web: %s", raw)
	}
}

// TestClusterNodeKillDiffFallback: a diff whose owner dies keeps
// working through any surviving node — served out of the shared bucket,
// byte-identical to the answer the owner gave while alive.
func TestClusterNodeKillDiffFallback(t *testing.T) {
	nodes := startCluster(t, 3, 2)
	// Grow traces until the diff's deciding (left) digest is owned by a
	// node we are willing to kill (anything but nodes[0], the survivor
	// we will query).
	var left, right string
	var victim *clusterNode
	for seed := 0; victim == nil && seed < 64; seed++ {
		l := mkClusterTrace(fmt.Sprintf("kill-left-%d", seed), seed, 60)
		r := mkClusterTrace(fmt.Sprintf("kill-right-%d", seed), seed+1, 60)
		var li, ri TraceInfo
		if status, raw := doJSON(t, http.MethodPut, nodes[0].url+"/traces", rsegBytes(t, l), &li); status != http.StatusCreated {
			t.Fatalf("upload left: %d: %s", status, raw)
		}
		if status, raw := doJSON(t, http.MethodPut, nodes[0].url+"/traces", rsegBytes(t, r), &ri); status != http.StatusCreated {
			t.Fatalf("upload right: %d: %s", status, raw)
		}
		if owner := ownerOf(nodes, li.ID); owner != nodes[0].id {
			left, right = li.ID, ri.ID
			for _, n := range nodes {
				if n.id == owner {
					victim = n
				}
			}
		}
	}
	if victim == nil {
		t.Fatal("no generated digest owned by a non-survivor node")
	}

	status, before := runDiff(t, nodes[0].url, left, right, 0, nil)
	if status != http.StatusOK {
		t.Fatalf("diff with owner alive: status %d: %s", status, before)
	}

	killNode(t, victim)

	runBody, _ := json.Marshal(RunRequest{Traces: map[string]string{"left": left, "right": right}})
	resp, err := http.Post(nodes[0].url+"/run/diff", "application/json", bytes.NewReader(runBody))
	if err != nil {
		t.Fatal(err)
	}
	served := resp.Header.Get(cluster.NodeHeader)
	body := make([]byte, 0, len(before))
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		body = append(body, buf[:n]...)
		if err != nil {
			break
		}
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diff after node kill: status %d: %s", resp.StatusCode, body)
	}
	if served != nodes[0].id {
		t.Fatalf("fallback diff served by %q, want local node %q", served, nodes[0].id)
	}
	if string(body) != before {
		t.Fatalf("fallback diff differs from owner's answer:\nowner: %s\nfallback: %s", before, body)
	}
	if got := nodes[0].srv.cl.Counters().Fallbacks.Load(); got < 1 {
		t.Fatalf("fallbacks = %d, want >= 1", got)
	}
}

// TestClusterLoopGuard: a request that already took its forwarding hop
// is never forwarded again — the receiving node answers locally even
// when it is not the owner.
func TestClusterLoopGuard(t *testing.T) {
	nodes := startCluster(t, 3, 2)
	tr := mkClusterTrace("loop-guard", 3, 60)
	var info TraceInfo
	if status, raw := doJSON(t, http.MethodPut, nodes[0].url+"/traces", rsegBytes(t, tr), &info); status != http.StatusCreated {
		t.Fatalf("upload: %d: %s", status, raw)
	}
	owner := ownerOf(nodes, info.ID)
	var outsider *clusterNode
	for _, n := range nodes {
		if n.id != owner {
			outsider = n
			break
		}
	}
	before := outsider.srv.cl.Counters().LoopGuarded.Load()
	req, _ := http.NewRequest(http.MethodGet, outsider.url+"/traces/"+info.ID, nil)
	req.Header.Set(cluster.ForwardedHeader, "z")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	served := resp.Header.Get(cluster.NodeHeader)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("loop-guarded request: status %d", resp.StatusCode)
	}
	if served != outsider.id {
		t.Fatalf("loop-guarded request served by %q, want local %q", served, outsider.id)
	}
	if got := outsider.srv.cl.Counters().LoopGuarded.Load(); got != before+1 {
		t.Fatalf("loop-guarded counter = %d, want %d", got, before+1)
	}
}

// TestClusterStatsAggregation: /cluster/stats on any node reports every
// peer's health plus cluster-wide totals, and keeps answering (with the
// dead peer marked unhealthy) after a node dies.
func TestClusterStatsAggregation(t *testing.T) {
	nodes := startCluster(t, 3, 2)
	var ids []string
	for i := 0; i < 4; i++ {
		tr := mkClusterTrace(fmt.Sprintf("stats-%d", i), i, 60)
		var info TraceInfo
		if status, raw := doJSON(t, http.MethodPut, nodes[i%3].url+"/traces", rsegBytes(t, tr), &info); status != http.StatusCreated {
			t.Fatalf("upload: %d: %s", status, raw)
		}
		ids = append(ids, info.ID)
	}

	var cs ClusterStatsResponse
	if status, raw := doJSON(t, http.MethodGet, nodes[1].url+"/cluster/stats", nil, &cs); status != http.StatusOK {
		t.Fatalf("/cluster/stats: %d: %s", status, raw)
	}
	if cs.Self != nodes[1].id || cs.Nodes != 3 || cs.HealthyNodes != 3 {
		t.Fatalf("cluster stats header: %+v", cs)
	}
	if cs.CorpusTraces != len(ids) {
		t.Fatalf("corpus traces = %d, want %d", cs.CorpusTraces, len(ids))
	}
	if len(cs.Peers) != 3 {
		t.Fatalf("peers = %d, want 3", len(cs.Peers))
	}
	if cs.TotalRequests == 0 {
		t.Fatal("total requests = 0 after uploads")
	}
	// Round-robin uploads of ring-sharded digests must have forwarded at
	// least once somewhere.
	if cs.TotalForwards == 0 {
		t.Fatal("total forwards = 0 across the ring")
	}
	// Per-node /stats carries the cluster block too.
	var st StatsResponse
	if status, raw := doJSON(t, http.MethodGet, nodes[2].url+"/stats", nil, &st); status != http.StatusOK {
		t.Fatalf("/stats: %d: %s", status, raw)
	} else if st.Cluster == nil || st.Cluster.NodeID != nodes[2].id || st.Cluster.Peers != 3 {
		t.Fatalf("/stats cluster block: %+v", st.Cluster)
	}

	killNode(t, nodes[2])
	if status, raw := doJSON(t, http.MethodGet, nodes[0].url+"/cluster/stats", nil, &cs); status != http.StatusOK {
		t.Fatalf("/cluster/stats with a dead peer: %d: %s", status, raw)
	}
	if cs.HealthyNodes != 2 {
		t.Fatalf("healthy nodes = %d after kill, want 2", cs.HealthyNodes)
	}
	for _, p := range cs.Peers {
		if p.ID == nodes[2].id && p.Healthy {
			t.Fatalf("dead peer reported healthy: %+v", p)
		}
	}
}
