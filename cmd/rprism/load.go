package main

import (
	"errors"
	"fmt"
	"os"
	"strings"

	rprism "repro"
	"repro/internal/trace"
)

// loadTraceFile loads a trace for a CLI flag, translating low-level I/O
// and decode failures into actionable messages. Every subcommand
// funnels trace reads through here so a missing or corrupt file exits
// with a clear diagnosis and a non-zero status instead of a raw decode
// error.
func loadTraceFile(flagName, path string) (*rprism.Trace, error) {
	t, err := rprism.LoadTrace(path)
	if err == nil {
		return t, nil
	}
	var fe *trace.FormatError
	switch {
	case errors.As(err, &fe) && !isSniffable(path):
		return nil, fmt.Errorf("-%s: %q is not a valid trace file: neither RSEG nor JSONL (a gob trace of an earlier release migrates with 'rprism convert -trace %s')",
			flagName, path, path)
	case errors.As(err, &fe) && strings.Contains(fe.Msg, "rprism convert -trace FILE"):
		return nil, fmt.Errorf("-%s: %q is not a valid trace file: headerless JSONL of an earlier release migrates with 'rprism convert -trace %s'",
			flagName, path, path)
	case errors.As(err, &fe):
		return nil, fmt.Errorf("-%s: trace file %q is damaged: %s data is malformed at byte offset %d: %s (the file may be truncated or partially written; re-record it or restore from a backup)",
			flagName, path, fe.Format, fe.Offset, fe.Msg)
	case errors.Is(err, os.ErrNotExist):
		return nil, fmt.Errorf("-%s: trace file %q does not exist (record one with 'rprism trace -src prog.mj -out %s')",
			flagName, path, path)
	case errors.Is(err, os.ErrPermission):
		return nil, fmt.Errorf("-%s: trace file %q is not readable: permission denied", flagName, path)
	case isDirectory(path):
		return nil, fmt.Errorf("-%s: %q is a directory, not a trace file", flagName, path)
	default:
		return nil, fmt.Errorf("-%s: %q is not a valid trace file: %v (expected the binary format written by 'rprism trace' or SaveTrace)",
			flagName, path, err)
	}
}

// isSniffable reports whether the file starts like an RSEG or JSONL
// trace, telling a foreign or legacy file apart from a damaged one.
func isSniffable(path string) bool {
	_, err := trace.SniffFile(path)
	return err == nil
}

func isDirectory(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}

// loadSource is loadTraceFile lifted to the Engine API: the trace is
// read eagerly (so a bad path fails with the friendly diagnosis before
// any analysis starts) and handed to the engine as a Source.
func loadSource(flagName, path string) (rprism.Source, error) {
	t, err := loadTraceFile(flagName, path)
	if err != nil {
		return nil, err
	}
	return rprism.FromTrace(t), nil
}
