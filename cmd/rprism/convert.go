package main

import (
	"bufio"
	"encoding/gob"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/trace"
)

// cmdConvert migrates traces to the RSEG columnar format. It is the one
// reader left for the gob encoding of earlier releases: the loaders
// everywhere else take RSEG and JSONL only.
//
//	rprism convert -trace run.trace [-out new.trace] [-compress]
//	rprism convert -dir corpusOrSegmentDir [-compress]
//
// Directory mode rewrites every *.seg file in place; single-file mode
// rewrites one trace (or copies it converted when -out is given). The
// conversion is verify-then-swap: each file's replacement is written to
// a temporary path, loaded back, and checked against the original's
// canonical content digest before it is renamed over the source — an
// interrupted or failed convert never damages the original. Files that
// already are RSEG are skipped, so re-running is a no-op; when the
// directory is a corpus (meta sidecars present), each stored trace is
// additionally reassembled and verified against its content address.
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
	// sidecar name is the trace's content digest. Reassembling each trace
	// from its (now RSEG) segments and re-deriving the digest proves the
	// migration preserved every content address.
	metas, err := filepath.Glob(filepath.Join(dir, "*.meta.json"))
	if err != nil {
		return fmt.Errorf("convert: scan %s: %w", dir, err)
	}
	for _, p := range metas {
		id := strings.TrimSuffix(filepath.Base(p), ".meta.json")
		t, err := trace.LoadSegments(dir, id)
		if err != nil {
			return fmt.Errorf("convert: reassemble %s after conversion: %w", id, err)
		}
		if got := t.ComputeDigest().String(); got != id {
			return fmt.Errorf("convert: trace %s reassembles to digest %s after conversion: content address broken", id, got)
		}
	}
	if len(metas) > 0 {
		fmt.Printf("%s: verified %d corpus trace(s) against their content addresses\n", dir, len(metas))
	}
	return nil
}

// sourceFormat names the encoding of a file to convert: "rseg" or
// "jsonl" as sniffed, and "gob" for any other prefix — gob streams have
// no magic, so a file that is not gob either fails in loadForConvert.
func sourceFormat(path string) (string, error) {
	format, err := trace.SniffFile(path)
	var fe *trace.FormatError
	switch {
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
	if format == "gob" {
		t, err := readGob(path)
		if err != nil {
			return nil, fmt.Errorf("convert: %q is not a trace file (neither RSEG, JSONL, nor the gob of earlier releases): %w", path, err)
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

// writeVerified writes t as RSEG to a temporary file next to dst, loads
// the temporary back and compares canonical digests, and only then
// renames it into place. The original is never touched until the
// replacement has proven byte-exact content.
func writeVerified(t *trace.Trace, dst string, opts trace.RSEGOptions) error {
	tmp, err := os.CreateTemp(filepath.Dir(dst), filepath.Base(dst)+".rseg-tmp-*")
	if err != nil {
		return fmt.Errorf("convert: %w", err)
	}
	tmpPath := tmp.Name()
	defer os.Remove(tmpPath) // no-op after a successful rename
	if err := t.WriteRSEGOpts(tmp, opts); err != nil {
		tmp.Close()
		return fmt.Errorf("convert: encode %s: %w", dst, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("convert: %w", err)
	}
	back, err := trace.Load(tmpPath)
	if err != nil {
		return fmt.Errorf("convert: verify %s: %w", dst, err)
	}
	if want, got := t.ComputeDigest(), back.ComputeDigest(); want != got {
		return fmt.Errorf("convert: verify %s: converted digest %s, want %s", dst, got, want)
	}
	if err := os.Rename(tmpPath, dst); err != nil {
		return fmt.Errorf("convert: %w", err)
	}
	return nil
}
