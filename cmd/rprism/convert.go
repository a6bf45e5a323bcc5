package main

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/atomicfile"
	"repro/internal/corpus"
	"repro/internal/trace"
)

// cmdConvert migrates traces to the RSEG columnar format. It is the one
// reader left for the gob encoding and the headerless JSONL (version 1)
// of earlier releases: the loaders everywhere else take RSEG and
// headed JSONL only.
//
//	rprism convert -trace run.trace [-out new.trace] [-compress]
//	rprism convert -dir corpusOrSegmentDir [-compress]
//
// Directory mode rewrites every *.seg file in place; single-file mode
// rewrites one trace (or copies it converted when -out is given). The
// conversion is verify-then-swap (see writeVerified): an interrupted or
// failed convert never damages the original. Files that already are
// RSEG are skipped, so re-running is a no-op. In a corpus (meta
// sidecars present), each stored trace is also verified against its
// content address and merged into segment 0 if an earlier release split
// it (see mergeCorpusTrace).
func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	dir := fs.String("dir", "", "corpus or segment directory to convert in place")
	path := fs.String("trace", "", "single trace file to convert")
	out := fs.String("out", "", "output path for -trace (default: rewrite in place)")
	compress := fs.Bool("compress", false, "DEFLATE-compress the RSEG blocks")
	_ = fs.Parse(args)
	if (*dir == "") == (*path == "") {
		return fmt.Errorf("convert: exactly one of -dir and -trace is required")
	}
	opts := trace.RSEGOptions{Compress: *compress}
	if *path != "" {
		res, err := convertFile(*path, *out, opts)
		if err != nil {
			return err
		}
		fmt.Println(res)
		return nil
	}
	return convertDir(*dir, opts)
}

// convertFile converts one trace file, returning a one-line report.
// With dst == "" the source is rewritten in place (and skipped when it
// already is RSEG); otherwise the converted copy is written to dst.
func convertFile(src, dst string, opts trace.RSEGOptions) (string, error) {
	format, err := sourceFormat(src)
	if err != nil {
		return "", err
	}
	inPlace := dst == ""
	if inPlace {
		if format == "rseg" {
			return fmt.Sprintf("%s: already rseg, skipped", src), nil
		}
		dst = src
	}
	t, err := loadForConvert(src, format)
	if err != nil {
		return "", err
	}
	if err := writeVerified(t, dst, opts); err != nil {
		return "", err
	}
	return fmt.Sprintf("%s: %s → rseg (%d entries)", dst, format, t.Len()), nil
}

// convertDir converts every segment file under dir in place, then
// re-verifies any corpus traces against their content addresses.
func convertDir(dir string, opts trace.RSEGOptions) error {
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		return fmt.Errorf("convert: scan %s: %w", dir, err)
	}
	if len(segs) == 0 {
		return fmt.Errorf("convert: no segment files (*.seg) under %q", dir)
	}
	converted, skipped := 0, 0
	for _, p := range segs {
		format, err := sourceFormat(p)
		if err != nil {
			return err
		}
		if format == "rseg" {
			skipped++
			continue
		}
		t, err := loadForConvert(p, format)
		if err != nil {
			return err
		}
		if err := writeVerified(t, p, opts); err != nil {
			return err
		}
		converted++
	}
	fmt.Printf("%s: converted %d segment(s), %d already rseg\n", dir, converted, skipped)

	// A corpus directory carries one meta sidecar per stored trace; the
	// sidecar name is the trace's content digest. Re-deriving each
	// digest proves the migration preserved every content address.
	metas, err := filepath.Glob(filepath.Join(dir, "*.meta.json"))
	if err != nil {
		return fmt.Errorf("convert: scan %s: %w", dir, err)
	}
	for _, p := range metas {
		if err := mergeCorpusTrace(dir, strings.TrimSuffix(filepath.Base(p), ".meta.json"), p, opts); err != nil {
			return err
		}
	}
	if len(metas) > 0 {
		fmt.Printf("%s: verified %d corpus trace(s) against their content addresses\n", dir, len(metas))
	}
	return nil
}

// mergeCorpusTrace verifies stored trace id against its digest and
// leaves it whole in segment 0, its sidecar counting one segment, and no
// other segment. A run cut short between those steps is finished by the
// next, which finds segment 0 already whole.
func mergeCorpusTrace(dir, id, metaPath string, opts trace.RSEGOptions) error {
	var m corpus.Meta
	raw, err := os.ReadFile(metaPath)
	if err == nil {
		err = json.Unmarshal(raw, &m)
	}
	if err != nil {
		return fmt.Errorf("convert: sidecar %s: %w", metaPath, err)
	}
	seg0 := trace.SegmentPath(dir, id, 0)
	t, err := trace.Load(seg0)
	whole := err == nil && t.Len() == m.Entries
	if !whole {
		t, err = trace.LoadSegments(dir, id)
	}
	if err == nil && t.ComputeDigest().String() != id {
		err = fmt.Errorf("reassembles to digest %s: content address broken", t.ComputeDigest())
	}
	if err != nil {
		return fmt.Errorf("convert: trace %s: %w", id, err)
	}
	if !whole {
		t.Name = m.Name
		if err := writeVerified(t, seg0, opts); err != nil {
			return err
		}
	}
	if m.Segments != 1 {
		m.Segments = 1
		if raw, err = json.Marshal(m); err == nil {
			err = atomicfile.Write(metaPath, raw)
		}
		if err != nil {
			return fmt.Errorf("convert: %w", err)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, id+".*.seg")) // id is hex: no bad pattern
	for _, p := range segs {
		if p != seg0 {
			if err := os.Remove(p); err != nil {
				return fmt.Errorf("convert: %w", err)
			}
		}
	}
	return nil
}

// sourceFormat names the encoding of a file to convert: "rseg" or
// "jsonl" as sniffed, "jsonl v1" for JSONL without a header, and "gob"
// for any other prefix — gob streams have no magic, so a file that is
// not gob either fails in loadForConvert.
func sourceFormat(path string) (string, error) {
	format, err := trace.SniffFile(path)
	var fe *trace.FormatError
	switch {
	case err == nil && format == trace.FormatJSONL && !hasJSONLHeader(path):
		return "jsonl v1", nil
	case err == nil:
		return format.String(), nil
	case errors.As(err, &fe):
		return "gob", nil
	default:
		return "", fmt.Errorf("convert: %w", err)
	}
}

// loadForConvert loads a source trace in the named format, with the
// CLI's friendly error translation (a corrupt input names its file and
// offset rather than surfacing a raw decode error).
func loadForConvert(path, format string) (*trace.Trace, error) {
	switch format {
	case "gob":
		t, err := readGob(path)
		if err != nil {
			return nil, fmt.Errorf("convert: %q is not a trace file (neither RSEG, JSONL, nor the gob of earlier releases): %w", path, err)
		}
		return t, nil
	case "jsonl v1":
		t, err := readJSONLv1(path)
		if err != nil {
			return nil, fmt.Errorf("convert: %q: headerless JSONL: %w", path, err)
		}
		return t, nil
	}
	t, err := loadTraceFile("trace", path)
	if err != nil {
		return nil, fmt.Errorf("convert: %w", err)
	}
	return t, nil
}

// readGob decodes a trace file written with encoding/gob, the on-disk
// format before RSEG. The stream carries the canonical strings; Sym
// fields stored by the writing process are ids into its symbol table,
// so they are re-interned into this process's table.
func readGob(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var t trace.Trace
	if err := gob.NewDecoder(bufio.NewReader(f)).Decode(&t); err != nil {
		return nil, fmt.Errorf("gob decode: %w", err)
	}
	t.RehashSyms()
	return &t, nil
}

// hasJSONLHeader reports whether a JSONL file's first record is the
// header of the current version; an unreadable file reports true, so
// the ordinary loader names the failure.
func hasJSONLHeader(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return true
	}
	defer f.Close()
	var hdr struct {
		Format string `json:"format"`
	}
	err = json.NewDecoder(bufio.NewReader(f)).Decode(&hdr)
	return err != nil || hdr.Format != ""
}

// jsonEntryV1 is one line of the headerless JSONL of earlier releases:
// a self-contained entry with every string inlined.
type jsonEntryV1 struct {
	EID    trace.EntryID  `json:"eid"`
	TID    trace.ThreadID `json:"tid"`
	Method string         `json:"method,omitempty"`
	Self   *trace.Repr    `json:"self,omitempty"`
	Kind   string         `json:"kind"`
	Target *trace.Repr    `json:"target,omitempty"`
	Member string         `json:"member,omitempty"`
	Args   []trace.Repr   `json:"args,omitempty"`
	Stack  []trace.Frame  `json:"stack,omitempty"`
}

// readJSONLv1 decodes a headerless JSONL trace, one jsonEntryV1 per
// line, named like trace.Load names a JSONL trace without a name. Like
// readGob, it interns the strings into this process's symbol table.
func readJSONLv1(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	kinds := make(map[string]trace.EventKind)
	for k := trace.KindEOF; k <= trace.KindEnd; k++ {
		kinds[k.String()] = k
	}
	t := trace.New(filepath.Base(path))
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var je jsonEntryV1
		if err := dec.Decode(&je); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("byte offset %d: %w", dec.InputOffset(), err)
		}
		kind, ok := kinds[je.Kind]
		if !ok {
			return nil, fmt.Errorf("byte offset %d: unknown event kind %q", dec.InputOffset(), je.Kind)
		}
		e := trace.Entry{
			EID: je.EID, TID: je.TID, Method: je.Method,
			Event: trace.Event{Kind: kind, Member: je.Member, Args: je.Args, Stack: je.Stack},
		}
		if je.Self != nil {
			e.Self = *je.Self
		}
		if je.Target != nil {
			e.Event.Target = *je.Target
		}
		t.Entries = append(t.Entries, e)
	}
	t.RehashSyms()
	return t, nil
}

// writeVerified encodes t as RSEG, decodes the bytes back and compares
// canonical digests, all in memory, and only then writes them to dst
// through atomicfile.Write. The original is never touched until the
// replacement has proven byte-exact content.
func writeVerified(t *trace.Trace, dst string, opts trace.RSEGOptions) error {
	var buf bytes.Buffer
	if err := t.WriteRSEGOpts(&buf, opts); err != nil {
		return fmt.Errorf("convert: encode %s: %w", dst, err)
	}
	back, err := trace.ReadAny(dst, bytes.NewReader(buf.Bytes()))
	if err != nil {
		return fmt.Errorf("convert: verify %s: %w", dst, err)
	}
	if want, got := t.ComputeDigest(), back.ComputeDigest(); want != got {
		return fmt.Errorf("convert: verify %s: converted digest %s, want %s", dst, got, want)
	}
	if err := atomicfile.Write(dst, buf.Bytes()); err != nil {
		return fmt.Errorf("convert: %w", err)
	}
	return nil
}
