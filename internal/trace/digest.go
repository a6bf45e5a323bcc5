package trace

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
)

// Digest is the content address of a trace: a SHA-256 over the canonical
// entry encoding. Two traces have the same digest exactly when their
// entry sequences are semantically identical, regardless of the process
// that produced them, the symbol-table ids their entries carry, or the
// name they were saved under. The corpus store keys everything — disk
// segments, the decoded-trace LRU, the memoized view webs — by Digest.
type Digest [sha256.Size]byte

// String renders the digest as lowercase hex, the form used in file
// names and HTTP ids.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// IsZero reports whether the digest is unset.
func (d Digest) IsZero() bool { return d == Digest{} }

// ParseDigest parses the hex form produced by Digest.String.
func ParseDigest(s string) (Digest, error) {
	var d Digest
	b, err := hex.DecodeString(s)
	if err != nil {
		return d, fmt.Errorf("trace: digest %q: %w", s, err)
	}
	if len(b) != len(d) {
		return d, fmt.Errorf("trace: digest %q: want %d hex bytes, got %d", s, len(d), len(b))
	}
	copy(d[:], b)
	return d, nil
}

// WriteCanonical writes the canonical binary encoding of the trace's
// entries to w: a fixed field order with varint framing, independent of
// any file encoding and of the process-local Sym fields. The trace name is deliberately excluded — digests
// address content, so the same execution uploaded under two names
// deduplicates to one stored trace.
func (t *Trace) WriteCanonical(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := &canonWriter{w: bw}
	cw.uvarint(uint64(len(t.Entries)))
	for i := range t.Entries {
		e := &t.Entries[i]
		cw.varint(int64(e.EID))
		cw.varint(int64(e.TID))
		cw.str(e.Method)
		cw.repr(&e.Self)
		cw.uvarint(uint64(e.Event.Kind))
		cw.str(e.Event.Member)
		cw.repr(&e.Event.Target)
		cw.uvarint(uint64(len(e.Event.Args)))
		for j := range e.Event.Args {
			cw.repr(&e.Event.Args[j])
		}
		cw.uvarint(uint64(len(e.Event.Stack)))
		for j := range e.Event.Stack {
			f := &e.Event.Stack[j]
			cw.str(f.Method)
			cw.repr(&f.Caller)
			cw.repr(&f.Callee)
		}
	}
	if cw.err != nil {
		return fmt.Errorf("trace: canonical encode %q: %w", t.Name, cw.err)
	}
	return bw.Flush()
}

// CanonicalBytes returns the canonical encoding as a byte slice.
func (t *Trace) CanonicalBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := t.WriteCanonical(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ComputeDigest hashes the canonical encoding. It streams through the
// hash without materializing the encoded bytes, so digesting a large
// trace costs no extra memory.
func (t *Trace) ComputeDigest() Digest {
	h := sha256.New()
	// sha256.Write never fails, so WriteCanonical cannot either.
	_ = t.WriteCanonical(h)
	var d Digest
	h.Sum(d[:0])
	return d
}

// canonWriter serializes primitive fields in the canonical order,
// latching the first error (the sticky-error idiom of bufio).
type canonWriter struct {
	w   io.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

func (cw *canonWriter) write(p []byte) {
	if cw.err != nil {
		return
	}
	_, cw.err = cw.w.Write(p)
}

func (cw *canonWriter) uvarint(v uint64) {
	n := binary.PutUvarint(cw.buf[:], v)
	cw.write(cw.buf[:n])
}

func (cw *canonWriter) varint(v int64) {
	n := binary.PutVarint(cw.buf[:], v)
	cw.write(cw.buf[:n])
}

func (cw *canonWriter) str(s string) {
	cw.uvarint(uint64(len(s)))
	if cw.err == nil && len(s) > 0 {
		_, cw.err = io.WriteString(cw.w, s)
	}
}

// repr writes the version-independent Repr fields; Sym fields are
// process-local and never enter the canonical form.
func (cw *canonWriter) repr(r *Repr) {
	cw.varint(int64(r.Loc))
	cw.str(r.Class)
	cw.uvarint(r.Hash)
	cw.str(r.Str)
	cw.varint(int64(r.Seq))
}
