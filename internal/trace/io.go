package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
		rd, err := OpenRSEGBytes(data, name)
		if err != nil {
			return nil, err
		}
		return rd.Trace()
	}
	return ReadJSONL(name, br)
}

// Save writes the trace to a file in the on-disk format (RSEG; see
// rseg.go).
func (t *Trace) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: save: %w", err)
	}
	defer f.Close()
	if err := t.WriteRSEG(f); err != nil {
		return err
	}
	return f.Close()
}

// sniffFormat detects the encoding of a trace from its first bytes: the
// RSEG magic, or a JSON object open (JSONL, both versions). Any other
// prefix — including the gob files and segments of earlier releases,
// which `rprism convert` migrates — is a *FormatError labelled with
// path.
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
	return sniffOpen(f, path)
}

// sniffOpen reads the format off an open file's first bytes.
func sniffOpen(f *os.File, path string) (Format, error) {
	var prefix [4]byte
	n, err := io.ReadFull(f, prefix[:])
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return 0, fmt.Errorf("trace: sniff %s: %w", path, err)
	}
	return sniffFormat(prefix[:n], path)
}

// Load reads a trace from a file written by Save or WriteJSONL, the
// format detected from the file's first bytes.
func Load(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: load: %w", err)
	}
	defer f.Close()
	format, err := sniffOpen(f, path)
	if err != nil {
		return nil, err
	}
	if format == FormatRSEG {
		return LoadRSEG(path)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("trace: load %s: %w", path, err)
	}
	t, err := ReadJSONL(filepath.Base(path), f)
	if fe, ok := err.(*FormatError); ok {
		fe.Path = path
	}
	return t, err
}

// LoadRSEG eagerly loads an RSEG file: map, materialize every thread,
// release the mapping. The FromFile engine source and the segment
// reassembler land here via Load's sniffing; callers that want lazy
// per-thread access use OpenRSEG directly.
func LoadRSEG(path string) (*Trace, error) {
	r, err := OpenRSEG(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return r.Trace()
}
