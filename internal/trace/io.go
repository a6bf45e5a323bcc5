package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/atomicfile"
)

// ReadAny reads a trace of any supported format from a stream, sniffing
// the encoding (RSEG or JSONL) from the first bytes; anything else is a
// *FormatError. The name labels the trace for formats that do not carry
// one (JSONL) and errors. It is the upload-endpoint counterpart of Load:
// a bounded body whose format the client chose.
func ReadAny(name string, r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	prefix, err := br.Peek(4)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("trace: read %s: %w", name, err)
	}
	format, err := sniffFormat(prefix, name)
	if err != nil {
		return nil, err
	}
	if format == FormatRSEG {
		// RSEG is indexed from the tail, so a stream must land in memory
		// before parsing; upload paths already bound the body size.
		data, err := io.ReadAll(br)
		if err != nil {
			return nil, fmt.Errorf("trace: read %s: %w", name, err)
		}
		return decodeRSEG(data, name)
	}
	return ReadJSONL(name, br)
}

// Save writes the trace to a file in the on-disk format (RSEG; see
// rseg.go), replacing it whole: a save cut short leaves the old file.
func (t *Trace) Save(path string) error {
	var buf bytes.Buffer
	if err := t.WriteRSEG(&buf); err != nil {
		return err
	}
	if err := atomicfile.Write(path, buf.Bytes()); err != nil {
		return fmt.Errorf("trace: save: %w", err)
	}
	return nil
}

// sniffFormat detects the encoding of a trace from its first bytes: the
// RSEG magic, or a JSON object open (JSONL). Any other prefix —
// including the gob files and segments of earlier releases, which
// `rprism convert` migrates — is a *FormatError labelled with path.
func sniffFormat(prefix []byte, path string) (Format, error) {
	switch {
	case len(prefix) >= 4 && string(prefix[:4]) == rsegMagic:
		return FormatRSEG, nil
	case len(prefix) >= 2 && prefix[0] == '{' && prefix[1] == '"':
		return FormatJSONL, nil
	}
	return 0, &FormatError{Path: path, Format: "trace", Msg: fmt.Sprintf(
		"unrecognized prefix %q: neither RSEG nor JSONL (gob traces of earlier releases migrate with 'rprism convert -trace FILE', gob corpora and segment directories with 'rprism convert -dir DIR')",
		prefix)}
}

// SniffFile detects the format of a trace file on disk.
func SniffFile(path string) (Format, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("trace: sniff: %w", err)
	}
	defer f.Close()
	var prefix [4]byte
	n, err := io.ReadFull(f, prefix[:])
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return 0, fmt.Errorf("trace: sniff %s: %w", path, err)
	}
	return sniffFormat(prefix[:n], path)
}

// Load reads a trace from a file written by Save or WriteJSONL, the
// format detected from the file's first bytes. The file is read once,
// whole; the FromFile engine source, the CLI and the segment reassembler
// all land here.
func Load(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("trace: load: %w", err)
	}
	format, err := sniffFormat(data[:min(len(data), 4)], path)
	if err != nil {
		return nil, err
	}
	if format == FormatRSEG {
		return decodeRSEG(data, path)
	}
	t, err := ReadJSONL(filepath.Base(path), bytes.NewReader(data))
	if fe, ok := err.(*FormatError); ok {
		fe.Path = path
	}
	return t, err
}
