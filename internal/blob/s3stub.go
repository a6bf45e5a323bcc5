package blob

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/xml"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// S3Stub is an in-process S3-compatible object store: enough of the
// REST API (path-style PUT/GET/DELETE object, list-type=2 bucket
// listing with continuation) for the S3 backend, the cluster e2e
// tests, and the CI cluster job to run against real HTTP without
// minio. When credentials are set it verifies SigV4 signatures by
// recomputing them with the shared signer; FailNext injects transient
// 503 bursts to exercise the retry policy end to end.
type S3Stub struct {
	bucket string
	ak, sk string
	region string

	mu       sync.Mutex
	objects  map[string][]byte
	failN    int
	reqs     int64
	pageSize int
}

// NewS3Stub creates an empty stub serving one bucket. Empty
// credentials accept unsigned requests; set both to require valid
// SigV4 signatures.
func NewS3Stub(bucket, accessKey, secretKey, region string) *S3Stub {
	if region == "" {
		region = "us-east-1"
	}
	return &S3Stub{
		bucket:  bucket,
		ak:      accessKey,
		sk:      secretKey,
		region:  region,
		objects: make(map[string][]byte),
	}
}

// FailNext makes the next n requests answer 503 — a transient burst.
func (s *S3Stub) FailNext(n int) {
	s.mu.Lock()
	s.failN = n
	s.mu.Unlock()
}

// SetPageSize caps listing pages at n keys regardless of the
// client's max-keys, forcing the continuation-token loop in tests.
func (s *S3Stub) SetPageSize(n int) {
	s.mu.Lock()
	s.pageSize = n
	s.mu.Unlock()
}

// Requests returns how many requests the stub has seen.
func (s *S3Stub) Requests() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reqs
}

// Len returns the number of stored objects.
func (s *S3Stub) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.objects)
}

func (s *S3Stub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.reqs++
	if s.failN > 0 {
		s.failN--
		s.mu.Unlock()
		http.Error(w, "injected transient failure", http.StatusServiceUnavailable)
		return
	}
	s.mu.Unlock()

	body, err := readBody(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if s.ak != "" {
		if !s.verifySignature(r, body) {
			http.Error(w, "SignatureDoesNotMatch", http.StatusForbidden)
			return
		}
	}

	bucket, key, ok := splitBucketKey(r.URL)
	if !ok || bucket != s.bucket {
		http.Error(w, "NoSuchBucket", http.StatusNotFound)
		return
	}
	if key == "" {
		if r.Method == http.MethodGet && r.URL.Query().Get("list-type") == "2" {
			s.serveList(w, r)
			return
		}
		http.Error(w, "NotImplemented", http.StatusNotImplemented)
		return
	}
	switch r.Method {
	case http.MethodPut:
		s.mu.Lock()
		s.objects[key] = body
		s.mu.Unlock()
		w.WriteHeader(http.StatusOK)
	case http.MethodGet:
		s.mu.Lock()
		data, ok := s.objects[key]
		s.mu.Unlock()
		if !ok {
			http.Error(w, "NoSuchKey", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		w.WriteHeader(http.StatusOK)
		w.Write(data)
	case http.MethodDelete:
		s.mu.Lock()
		delete(s.objects, key)
		s.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "MethodNotAllowed", http.StatusMethodNotAllowed)
	}
}

// serveList answers a list-type=2 bucket listing, honoring prefix,
// max-keys (default 1000) and continuation-token (the key to resume
// strictly after) so the client's pagination loop is exercised.
func (s *S3Stub) serveList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	prefix := q.Get("prefix")
	after := q.Get("continuation-token")
	maxKeys := 1000
	if v := q.Get("max-keys"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			maxKeys = n
		}
	}
	s.mu.Lock()
	if s.pageSize > 0 && s.pageSize < maxKeys {
		maxKeys = s.pageSize
	}
	keys := make([]string, 0, len(s.objects))
	for k := range s.objects {
		if strings.HasPrefix(k, prefix) && (after == "" || k > after) {
			keys = append(keys, k)
		}
	}
	s.mu.Unlock()
	sort.Strings(keys)
	truncated := len(keys) > maxKeys
	next := ""
	if truncated {
		keys = keys[:maxKeys]
		next = keys[len(keys)-1]
	}

	type contents struct {
		Key string `xml:"Key"`
	}
	type listBucketResult struct {
		XMLName               xml.Name   `xml:"ListBucketResult"`
		IsTruncated           bool       `xml:"IsTruncated"`
		NextContinuationToken string     `xml:"NextContinuationToken,omitempty"`
		Contents              []contents `xml:"Contents"`
	}
	res := listBucketResult{IsTruncated: truncated, NextContinuationToken: next}
	for _, k := range keys {
		res.Contents = append(res.Contents, contents{Key: k})
	}
	w.Header().Set("Content-Type", "application/xml")
	fmt.Fprint(w, xml.Header)
	_ = xml.NewEncoder(w).Encode(res)
}

// verifySignature recomputes the SigV4 signature of the incoming
// request with the stub's credentials and the SignedHeaders list the
// client declared, and compares. The client and this verifier share
// one canonicalization implementation (authorizationV4), so a passing
// round trip proves the two ends agree on the spec.
func (s *S3Stub) verifySignature(r *http.Request, body []byte) bool {
	auth := r.Header.Get("Authorization")
	if !strings.HasPrefix(auth, "AWS4-HMAC-SHA256 ") {
		return false
	}
	fields := map[string]string{}
	for _, part := range strings.Split(strings.TrimPrefix(auth, "AWS4-HMAC-SHA256 "), ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) == 2 {
			fields[kv[0]] = kv[1]
		}
	}
	signed := strings.Split(fields["SignedHeaders"], ";")
	amzDate := r.Header.Get("x-amz-date")
	now, err := time.Parse("20060102T150405Z", amzDate)
	if err != nil {
		return false
	}
	payloadHash := r.Header.Get("x-amz-content-sha256")
	gotHash := sha256.Sum256(body)
	if payloadHash != hex.EncodeToString(gotHash[:]) {
		return false
	}
	want := authorizationV4(r.Method, r.URL, r.Host, r.Header, signed,
		payloadHash, strings.Split(fields["Credential"], "/")[0], s.sk, s.region, now)
	return auth == want
}

func readBody(r *http.Request) ([]byte, error) {
	if r.Body == nil {
		return nil, nil
	}
	defer r.Body.Close()
	return io.ReadAll(r.Body)
}

// splitBucketKey parses a path-style URL path into bucket and key.
func splitBucketKey(u *url.URL) (bucket, key string, ok bool) {
	p := strings.TrimPrefix(u.Path, "/")
	if p == "" {
		return "", "", false
	}
	parts := strings.SplitN(p, "/", 2)
	bucket = parts[0]
	if len(parts) == 2 {
		key = parts[1]
	}
	return bucket, key, true
}
