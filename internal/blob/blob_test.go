package blob

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/retry"
)

// conformance runs the Backend contract against one implementation:
// put/get round trips, ErrNotFound on misses, idempotent delete,
// sorted prefix listing, and keys containing dots and slashes.
func conformance(t *testing.T, b Backend) {
	t.Helper()
	ctx := context.Background()

	if _, err := b.Get(ctx, "absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(absent) = %v, want ErrNotFound", err)
	}
	if err := b.Delete(ctx, "absent"); err != nil {
		t.Fatalf("Delete(absent) = %v, want nil (idempotent)", err)
	}

	objects := map[string][]byte{
		"aa11.000000.seg":        []byte("segment zero"),
		"aa11.000001.seg":        []byte("segment one"),
		"aa11.meta.json":         []byte(`{"id":"aa11"}`),
		"aa11.sketch.json":       []byte(`{"v":1}`),
		"bb22.000000.seg":        []byte("other trace"),
		"pre/fix/cc33.meta.json": []byte("slashed key"),
	}
	for k, v := range objects {
		if err := b.Put(ctx, k, v); err != nil {
			t.Fatalf("Put(%s): %v", k, err)
		}
	}
	for k, v := range objects {
		rc, err := b.Get(ctx, k)
		if err != nil {
			t.Fatalf("Get(%s): %v", k, err)
		}
		got, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			t.Fatalf("read %s: %v", k, err)
		}
		if string(got) != string(v) {
			t.Fatalf("Get(%s) = %q, want %q", k, got, v)
		}
	}

	keys, err := b.List(ctx, "aa11.")
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	want := []string{"aa11.000000.seg", "aa11.000001.seg", "aa11.meta.json", "aa11.sketch.json"}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("List(aa11.) = %v, want %v", keys, want)
	}
	keys, err = b.List(ctx, "pre/")
	if err != nil {
		t.Fatalf("List(pre/): %v", err)
	}
	if !reflect.DeepEqual(keys, []string{"pre/fix/cc33.meta.json"}) {
		t.Fatalf("List(pre/) = %v", keys)
	}

	// Overwrite, then delete, then miss.
	if err := b.Put(ctx, "bb22.000000.seg", []byte("rewritten")); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	got, err := GetBytes(ctx, b, "bb22.000000.seg")
	if err != nil || string(got) != "rewritten" {
		t.Fatalf("after overwrite: %q, %v", got, err)
	}
	if err := b.Delete(ctx, "bb22.000000.seg"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := b.Get(ctx, "bb22.000000.seg"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(deleted) = %v, want ErrNotFound", err)
	}
}

func TestFSConformance(t *testing.T) {
	b, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	conformance(t, b)
}

// TestFSListSkipsLeftoverTemps: the temp file of a Put cut short by a
// crash (this release's name and the ".put-" name of earlier ones) is
// never listed as an object.
func TestFSListSkipsLeftoverTemps(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := fs.Put(ctx, "aa11.meta.json", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"aa11.000000.seg.tmp-123456", "pre%2Faa11.meta.json.tmp-9", ".put-77"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("half"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := fs.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys, []string{"aa11.meta.json"}) {
		t.Fatalf("List = %v, want only the object Put wrote", keys)
	}
}

func TestMemConformance(t *testing.T) {
	m := NewMem()
	conformance(t, m)
	ctx := context.Background()
	if n, err := m.Stat(ctx, "aa11.meta.json"); err != nil || n != int64(len(`{"id":"aa11"}`)) {
		t.Fatalf("Stat = %d, %v; want %d", n, err, len(`{"id":"aa11"}`))
	}
	if _, err := m.Stat(ctx, "absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Stat(absent) = %v, want ErrNotFound", err)
	}
}

func TestS3Conformance(t *testing.T) {
	stub := NewS3Stub("traces", "", "", "")
	srv := httptest.NewServer(stub)
	defer srv.Close()
	b, err := NewS3(S3Options{Endpoint: srv.URL, Bucket: "traces"})
	if err != nil {
		t.Fatal(err)
	}
	conformance(t, b)
}

func TestS3ConformanceSigned(t *testing.T) {
	stub := NewS3Stub("traces", "AKIDEXAMPLE", "secret/key+chars", "eu-central-1")
	srv := httptest.NewServer(stub)
	defer srv.Close()
	b, err := NewS3(S3Options{
		Endpoint: srv.URL, Bucket: "traces",
		AccessKey: "AKIDEXAMPLE", SecretKey: "secret/key+chars", Region: "eu-central-1",
	})
	if err != nil {
		t.Fatal(err)
	}
	conformance(t, b)
}

// TestS3RejectsBadSignature proves the stub actually verifies: a
// client signing with the wrong secret is refused, and the 403 is
// classified permanent (no retry burn).
func TestS3RejectsBadSignature(t *testing.T) {
	stub := NewS3Stub("traces", "AK", "right-secret", "")
	srv := httptest.NewServer(stub)
	defer srv.Close()
	b, err := NewS3(S3Options{Endpoint: srv.URL, Bucket: "traces", AccessKey: "AK", SecretKey: "wrong"})
	if err != nil {
		t.Fatal(err)
	}
	err = b.Put(context.Background(), "k", []byte("v"))
	if err == nil {
		t.Fatal("Put with wrong secret succeeded")
	}
	if !retry.IsPermanent(err) {
		t.Fatalf("403 must be permanent, got %v", err)
	}
}

// TestS3ListPagination forces small pages so the continuation-token
// loop runs: 7 keys, max-keys=2 (the stub honors max-keys; the client
// always follows NextContinuationToken).
func TestS3ListPagination(t *testing.T) {
	stub := NewS3Stub("traces", "", "", "")
	srv := httptest.NewServer(stub)
	defer srv.Close()
	ctx := context.Background()
	b, err := NewS3(S3Options{Endpoint: srv.URL, Bucket: "traces"})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 7; i++ {
		k := fmt.Sprintf("dig.%06d.seg", i)
		want = append(want, k)
		if err := b.Put(ctx, k, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	stub.SetPageSize(2) // 7 keys / pages of 2 → 4 requests
	before := stub.Requests()
	keys, err := b.List(ctx, "dig.")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("List = %v, want %v", keys, want)
	}
	if got := stub.Requests() - before; got != 4 {
		t.Fatalf("pagination took %d requests, want 4", got)
	}
}

// TestRetryingBackendTransientBurst: a 5xx burst shorter than the
// attempt bound heals; the op count proves retries actually happened.
func TestRetryingBackendTransientBurst(t *testing.T) {
	mem := NewMem()
	retries := 0
	b := WithRetry(mem, retry.Policy{Attempts: 4, Base: time.Millisecond}, func() { retries++ })
	ctx := context.Background()

	if err := b.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("clean put: %v", err)
	}
	mem.FailNext(2)
	if err := b.Put(ctx, "k2", []byte("v2")); err != nil {
		t.Fatalf("put under burst: %v", err)
	}
	if retries != 2 {
		t.Fatalf("onRetry fired %d times, want 2", retries)
	}
	mem.FailNext(3)
	if _, err := GetBytes(ctx, b, "k"); err != nil {
		t.Fatalf("get under burst: %v", err)
	}
}

// TestRetryingBackendExhaustsAttempts: a burst longer than the bound
// fails with the attempts-failed error.
func TestRetryingBackendExhaustsAttempts(t *testing.T) {
	mem := NewMem()
	b := WithRetry(mem, retry.Policy{Attempts: 3, Base: time.Millisecond}, nil)
	mem.FailNext(99)
	err := b.Put(context.Background(), "k", []byte("v"))
	if err == nil {
		t.Fatal("put succeeded under permanent burst")
	}
	if got := mem.Ops(); got != 3 {
		t.Fatalf("backend saw %d ops, want 3", got)
	}
}

// TestRetryingBackendPermanentFailsFast: ErrNotFound and
// Permanent-marked faults must not burn attempts.
func TestRetryingBackendPermanentFailsFast(t *testing.T) {
	mem := NewMem()
	b := WithRetry(mem, retry.Policy{Attempts: 5, Base: time.Millisecond}, nil)
	ctx := context.Background()

	if _, err := b.Get(ctx, "absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(absent) = %v, want ErrNotFound", err)
	}
	if got := mem.Ops(); got != 1 {
		t.Fatalf("not-found burned %d ops, want 1", got)
	}

	rejected := errors.New("quota exceeded")
	mem.SetFault(func(op Op, key string) error { return retry.Permanent(rejected) })
	before := mem.Ops()
	if err := b.Put(ctx, "k", nil); !errors.Is(err, rejected) {
		t.Fatalf("Put = %v, want %v", err, rejected)
	}
	if got := mem.Ops() - before; got != 1 {
		t.Fatalf("permanent fault burned %d ops, want 1", got)
	}
}

// TestS3RetryAgainstStubBurst exercises the full stack over real
// HTTP: stub 503 burst → transient error → retry → success.
func TestS3RetryAgainstStubBurst(t *testing.T) {
	stub := NewS3Stub("traces", "", "", "")
	srv := httptest.NewServer(stub)
	defer srv.Close()
	raw, err := NewS3(S3Options{Endpoint: srv.URL, Bucket: "traces"})
	if err != nil {
		t.Fatal(err)
	}
	b := WithRetry(raw, retry.Policy{Attempts: 4, Base: time.Millisecond}, nil)
	ctx := context.Background()
	if err := b.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	stub.FailNext(2)
	got, err := GetBytes(ctx, b, "k")
	if err != nil {
		t.Fatalf("get under 503 burst: %v", err)
	}
	if string(got) != "v" {
		t.Fatalf("got %q", got)
	}
}

// TestConfigOpen tables the operator spellings.
func TestConfigOpen(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name    string
		cfg     Config
		want    string // type name, "" = nil backend
		wantErr bool
	}{
		{name: "unset", cfg: Config{}, want: ""},
		{name: "mem", cfg: Config{Bucket: "mem://"}, want: "*blob.Mem"},
		{name: "fs", cfg: Config{Bucket: "fs://" + dir}, want: "*blob.FS"},
		{name: "fs empty path", cfg: Config{Bucket: "fs://"}, wantErr: true},
		{name: "s3", cfg: Config{Bucket: "b", Endpoint: "http://127.0.0.1:9000"}, want: "*blob.S3"},
		{name: "s3 no endpoint", cfg: Config{Bucket: "b"}, wantErr: true},
		{name: "s3 half creds", cfg: Config{Bucket: "b", Endpoint: "http://x", AccessKey: "a"}, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := tc.cfg.Open()
			if tc.wantErr {
				if err == nil {
					t.Fatal("want error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			got := ""
			if b != nil {
				got = fmt.Sprintf("%T", b)
			}
			if got != tc.want {
				t.Fatalf("Open = %s, want %s", got, tc.want)
			}
		})
	}
}
