package blob

import (
	"bytes"
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"repro/internal/retry"
)

// S3Options configure the S3-compatible backend.
type S3Options struct {
	// Endpoint is the service URL (http://127.0.0.1:9000 for a local
	// minio; https://s3.amazonaws.com for AWS).
	Endpoint string
	// Bucket must already exist; the backend never creates buckets.
	Bucket string
	// AccessKey/SecretKey enable SigV4 signing. Both empty sends
	// unsigned requests — the right mode for anonymous test stubs.
	AccessKey string
	SecretKey string
	// Region is the SigV4 signing region (default "us-east-1" — what
	// minio answers to unless configured otherwise).
	Region string
	// Client overrides the HTTP client (default: 30s timeout).
	Client *http.Client
}

// S3 talks the S3 REST API over plain net/http: path-style object
// URLs ({endpoint}/{bucket}/{key}), list-type=2 listings with
// continuation, and optional SigV4 signing — no SDK dependency. It
// performs no retries of its own; wrap it in WithRetry.
type S3 struct {
	endpoint string // no trailing slash
	bucket   string
	ak, sk   string
	region   string
	client   *http.Client
}

// NewS3 builds the backend. It performs no network I/O; a wrong
// endpoint surfaces on first use.
func NewS3(opts S3Options) (*S3, error) {
	if opts.Endpoint == "" || opts.Bucket == "" {
		return nil, fmt.Errorf("blob: S3 backend needs an endpoint and a bucket")
	}
	if (opts.AccessKey == "") != (opts.SecretKey == "") {
		return nil, fmt.Errorf("blob: S3 credentials need both access key and secret key")
	}
	if _, err := url.Parse(opts.Endpoint); err != nil {
		return nil, fmt.Errorf("blob: bad S3 endpoint: %w", err)
	}
	region := opts.Region
	if region == "" {
		region = "us-east-1"
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &S3{
		endpoint: strings.TrimSuffix(opts.Endpoint, "/"),
		bucket:   opts.Bucket,
		ak:       opts.AccessKey,
		sk:       opts.SecretKey,
		region:   region,
		client:   client,
	}, nil
}

func (s *S3) objectURL(key string) string {
	return s.endpoint + "/" + s.bucket + "/" + awsEncodePath(key)
}

// send issues one request, signing it when credentials are set, and
// classifies the response status: 404 wraps ErrNotFound, other 4xx are
// permanent (retrying identical bytes is wasted), 5xx and transport
// errors stay transient for WithRetry.
func (s *S3) send(ctx context.Context, method, rawurl string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rawurl, rd)
	if err != nil {
		return nil, retry.Permanent(fmt.Errorf("blob: %w", err))
	}
	if body != nil {
		req.ContentLength = int64(len(body))
	}
	if s.ak != "" {
		SignV4(req, body, s.ak, s.sk, s.region, time.Now().UTC())
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("blob: %s %s: %w", method, rawurl, err)
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return resp, nil
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	err = fmt.Errorf("blob: %s %s: HTTP %d: %s", method, rawurl, resp.StatusCode,
		strings.TrimSpace(string(raw)))
	switch {
	case resp.StatusCode == http.StatusNotFound:
		return nil, fmt.Errorf("%w (%s)", ErrNotFound, strings.TrimPrefix(rawurl, s.endpoint+"/"))
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		return nil, retry.Permanent(err)
	default:
		return nil, err
	}
}

func (s *S3) Put(ctx context.Context, key string, data []byte) error {
	resp, err := s.send(ctx, http.MethodPut, s.objectURL(key), data)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

func (s *S3) Get(ctx context.Context, key string) (io.ReadCloser, error) {
	resp, err := s.send(ctx, http.MethodGet, s.objectURL(key), nil)
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

func (s *S3) Delete(ctx context.Context, key string) error {
	resp, err := s.send(ctx, http.MethodDelete, s.objectURL(key), nil)
	if err != nil {
		// S3 DELETE of a missing key returns 204; a stub answering 404
		// still satisfies the Backend contract (idempotent delete).
		if errors.Is(err, ErrNotFound) {
			return nil
		}
		return err
	}
	resp.Body.Close()
	return nil
}

// listResult is the subset of ListBucketResult (list-type=2) the
// backend consumes.
type listResult struct {
	IsTruncated           bool   `xml:"IsTruncated"`
	NextContinuationToken string `xml:"NextContinuationToken"`
	Contents              []struct {
		Key string `xml:"Key"`
	} `xml:"Contents"`
}

func (s *S3) List(ctx context.Context, prefix string) ([]string, error) {
	var out []string
	token := ""
	for {
		q := url.Values{}
		q.Set("list-type", "2")
		if prefix != "" {
			q.Set("prefix", prefix)
		}
		if token != "" {
			q.Set("continuation-token", token)
		}
		resp, err := s.send(ctx, http.MethodGet, s.endpoint+"/"+s.bucket+"?"+q.Encode(), nil)
		if err != nil {
			return nil, err
		}
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("blob: list %s: %w", prefix, err)
		}
		var lr listResult
		if err := xml.Unmarshal(raw, &lr); err != nil {
			return nil, retry.Permanent(fmt.Errorf("blob: bad list response: %w", err))
		}
		for _, c := range lr.Contents {
			out = append(out, c.Key)
		}
		if !lr.IsTruncated || lr.NextContinuationToken == "" {
			break
		}
		token = lr.NextContinuationToken
	}
	return sortKeys(out), nil
}

// ---- SigV4 ----

// SignV4 signs req in place with AWS Signature Version 4 (service
// "s3", single-chunk upload): it sets x-amz-date, x-amz-content-sha256
// and Authorization. body must be the exact payload bytes (nil for
// bodyless requests). Exported so the in-process stub can verify
// signatures by recomputation — the client and the verifier share one
// implementation of the canonicalization rules.
func SignV4(req *http.Request, body []byte, accessKey, secretKey, region string, now time.Time) {
	payloadHash := sha256.Sum256(body)
	hashHex := hex.EncodeToString(payloadHash[:])
	amzDate := now.Format("20060102T150405Z")
	req.Header.Set("x-amz-date", amzDate)
	req.Header.Set("x-amz-content-sha256", hashHex)
	signed := []string{"host", "x-amz-content-sha256", "x-amz-date"}
	auth := authorizationV4(req.Method, req.URL, req.Host, req.Header, signed,
		hashHex, accessKey, secretKey, region, now)
	req.Header.Set("Authorization", auth)
}

// authorizationV4 computes the Authorization header value from the
// request components. signedHeaders must be sorted lowercase names;
// host is resolved from the explicit host argument or the URL.
func authorizationV4(method string, u *url.URL, host string, hdr http.Header,
	signedHeaders []string, payloadHash, accessKey, secretKey, region string, now time.Time) string {
	if host == "" {
		host = u.Host
	}
	var canonHdrs strings.Builder
	for _, h := range signedHeaders {
		v := hdr.Get(h)
		if h == "host" {
			v = host
		}
		canonHdrs.WriteString(h + ":" + strings.TrimSpace(v) + "\n")
	}
	canonReq := strings.Join([]string{
		method,
		canonicalURI(u),
		canonicalQuery(u),
		canonHdrs.String(),
		strings.Join(signedHeaders, ";"),
		payloadHash,
	}, "\n")
	date := now.Format("20060102")
	scope := date + "/" + region + "/s3/aws4_request"
	reqHash := sha256.Sum256([]byte(canonReq))
	sts := strings.Join([]string{
		"AWS4-HMAC-SHA256",
		now.Format("20060102T150405Z"),
		scope,
		hex.EncodeToString(reqHash[:]),
	}, "\n")
	key := hmacSHA256([]byte("AWS4"+secretKey), date)
	key = hmacSHA256(key, region)
	key = hmacSHA256(key, "s3")
	key = hmacSHA256(key, "aws4_request")
	sig := hex.EncodeToString(hmacSHA256(key, sts))
	return fmt.Sprintf("AWS4-HMAC-SHA256 Credential=%s/%s, SignedHeaders=%s, Signature=%s",
		accessKey, scope, strings.Join(signedHeaders, ";"), sig)
}

func hmacSHA256(key []byte, msg string) []byte {
	h := hmac.New(sha256.New, key)
	h.Write([]byte(msg))
	return h.Sum(nil)
}

// canonicalURI is the AWS-encoded path: each segment percent-encoded
// with the unreserved set, '/' preserved.
func canonicalURI(u *url.URL) string {
	if u.Path == "" {
		return "/"
	}
	// Re-encode from the decoded path so the canonical form is
	// independent of how the caller escaped it.
	return "/" + awsEncodePath(strings.TrimPrefix(u.Path, "/"))
}

// awsEncodePath percent-encodes a path (keeping '/') with the AWS
// unreserved set: A–Z a–z 0–9 - . _ ~.
func awsEncodePath(p string) string {
	var b strings.Builder
	for i := 0; i < len(p); i++ {
		c := p[i]
		switch {
		case c >= 'A' && c <= 'Z', c >= 'a' && c <= 'z', c >= '0' && c <= '9',
			c == '-', c == '.', c == '_', c == '~', c == '/':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String()
}

// canonicalQuery is the sorted, AWS-encoded query string.
func canonicalQuery(u *url.URL) string {
	q := u.Query()
	keys := make([]string, 0, len(q))
	for k := range q {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		vs := append([]string(nil), q[k]...)
		sort.Strings(vs)
		for _, v := range vs {
			parts = append(parts, awsEncodeQuery(k)+"="+awsEncodeQuery(v))
		}
	}
	return strings.Join(parts, "&")
}

// awsEncodeQuery percent-encodes a query component ('/' is encoded
// here, unlike in paths).
func awsEncodeQuery(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'A' && c <= 'Z', c >= 'a' && c <= 'z', c >= '0' && c <= '9',
			c == '-', c == '.', c == '_', c == '~':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String()
}
