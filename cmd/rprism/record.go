package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"

	rprism "repro"
	"repro/internal/capture"
	"repro/internal/inject"
	"repro/internal/trace"
	"repro/internal/weave"
)

// multiFlag is a repeatable, comma-splittable string-list flag
// (-match a/... -match b, or -match a/...,b).
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	for _, p := range strings.Split(v, ",") {
		if p = strings.TrimSpace(p); p != "" {
			*m = append(*m, p)
		}
	}
	return nil
}

// cmdRecord runs a real program with capture injected — the live-capture
// analog of `rprism trace` for Go binaries that embed the capture shim
// (capture.StartFromEnv):
//
//	rprism record -out run.trace -- ./myprog arg1 arg2
//	rprism record -url http://localhost:8372 -- ./myprog
//
// With --weave the command is not a prebuilt binary but a Go package
// pattern: the zero-touch weaver (internal/weave) rebuilds it with every
// function instrumented, so a stock Go module records without embedding
// anything:
//
//	rprism record --weave -out run.trace -- ./cmd/anything arg1
//
// Disk mode (default, or -dir) points the child at a segment directory,
// then reassembles the segments after it exits — tolerating a truncated
// trailing segment if the child crashed mid-write — and saves the trace.
// With -url the child streams straight into an rprism-serve session
// instead, so the run is diffable while it is still executing.
//
// The child runs in its own process group; SIGINT/SIGTERM are relayed to
// it (the capture is recovered after it exits), and its exit code is
// forwarded as rprism's own.
func cmdRecord(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	out := fs.String("out", "", "output trace file (disk mode)")
	name := fs.String("name", "record", "trace name")
	dir := fs.String("dir", "", "segment directory to keep (disk mode; default: a temp dir)")
	url := fs.String("url", "", "stream to this rprism-serve URL instead of recording to disk")
	segment := fs.Int("segment", 0, "entries per segment/stream frame (0 = capture default)")
	weaveOn := fs.Bool("weave", false, "treat <cmd> as a Go package pattern: rebuild it with zero-touch instrumentation, then record")
	var match, exclude multiFlag
	fs.Var(&match, "match", "weave only packages matching this pattern (repeatable; cmd/go ... wildcards)")
	fs.Var(&exclude, "exclude", "do not weave packages matching this pattern (repeatable)")
	weaveDeps := fs.Bool("weave-deps", false, "also weave the target's module dependencies (stdlib is never woven)")
	weaveKeep := fs.Bool("weave-keep", false, "keep the weave work directory (rewritten sources, overlay, config)")
	weaveSrc := fs.String("weave-src", "", "rprism source checkout providing the capture runtime (default: $"+weave.EnvRuntimeSrc+" or auto-detected)")
	weaveBin := fs.String("weave-bin", "", "also copy the woven binary to this path")
	_ = fs.Parse(args)
	argv := fs.Args()
	if len(argv) == 0 {
		return fmt.Errorf("record: no command given (usage: rprism record [flags] -- <cmd> [args...])")
	}
	if !*weaveOn && (len(match) > 0 || len(exclude) > 0 || *weaveBin != "") {
		return fmt.Errorf("record: -match/-exclude/-weave-bin only apply with --weave")
	}

	cfg := inject.CaptureConfig{Name: *name, URL: *url, SegmentLimit: *segment}
	keepDir := *dir != ""
	if *url != "" && (*out != "" || keepDir) {
		// Silently ignoring -out/-dir would leave the user expecting a
		// file that never appears; the two sinks are mutually exclusive.
		return fmt.Errorf("record: -url streams to a server and writes no local files; drop -out/-dir (download via the server, or record to disk and 'rprism attach' afterwards)")
	}
	if *url == "" {
		if *out == "" && !keepDir {
			return fmt.Errorf("record: disk mode needs -out (or -dir) to keep the recording")
		}
		cfg.Dir = *dir
		if cfg.Dir == "" {
			tmp, err := os.MkdirTemp("", "rprism-record-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(tmp)
			cfg.Dir = tmp
		}
	}

	if *weaveOn {
		res, err := weave.Weave(ctx, weave.Config{
			Patterns:    argv[:1],
			Match:       match,
			Exclude:     exclude,
			IncludeDeps: *weaveDeps,
			RuntimeDir:  *weaveSrc,
			KeepWork:    *weaveKeep,
			Stderr:      os.Stderr,
		})
		if res != nil {
			defer res.Cleanup()
		}
		if err != nil {
			return fmt.Errorf("record: %w", err)
		}
		for _, w := range res.Warnings {
			fmt.Fprintln(os.Stderr, "rprism record:", w)
		}
		funcs := 0
		for _, p := range res.Packages {
			funcs += p.Funcs
		}
		fmt.Fprintf(os.Stderr, "rprism record: wove %d packages (%d functions) of %s\n",
			len(res.Packages), funcs, res.ModulePath)
		if *weaveKeep {
			fmt.Fprintf(os.Stderr, "rprism record: weave work kept in %s\n", res.WorkDir)
		}
		if *weaveBin != "" {
			if err := copyFile(res.Binary, *weaveBin); err != nil {
				return fmt.Errorf("record: copying woven binary: %w", err)
			}
		}
		argv = append([]string{res.Binary}, argv[1:]...)
	}

	child := exec.Command(argv[0], argv[1:]...)
	child.Stdout = os.Stdout
	child.Stderr = os.Stderr
	child.Stdin = os.Stdin
	child.Env = cfg.Environ(os.Environ())
	runErr := runChild(child)
	var exitErr *exec.ExitError
	if runErr != nil {
		if !errors.As(runErr, &exitErr) {
			return fmt.Errorf("record: %s: %w", argv[0], runErr)
		}
		// A failing child is still a recorded run — often the interesting
		// one. Report it and recover whatever was captured.
		fmt.Fprintf(os.Stderr, "rprism record: %s exited with %s (recovering the capture)\n",
			argv[0], exitErr)
	}
	// The child's exit code becomes rprism's own, so wrapping a program
	// in `rprism record` is transparent to CI gates and shell scripts.
	var childErr error
	if exitErr != nil {
		childErr = exitCodeError{code: childExitCode(exitErr)}
	}

	if *url != "" {
		fmt.Printf("recorded: streamed to %s (GET %s/sessions or /traces to inspect)\n", *url, *url)
		return childErr
	}

	tr, rep, err := trace.LoadSegmentsReport(cfg.Dir, *name)
	if err != nil {
		return fmt.Errorf("record: no capture recovered from %s: %w (did the child call capture.StartFromEnv?)", cfg.Dir, err)
	}
	if rep.Truncated() {
		fmt.Fprintf(os.Stderr, "rprism record: %s\n", rep.Warning)
	}
	stats := trace.ComputeStats(tr)
	fmt.Printf("recorded: %s\n", stats)
	if *out != "" {
		if err := rprism.SaveTrace(tr, *out); err != nil {
			return err
		}
		fmt.Printf("saved: %s (digest %s)\n", *out, tr.ComputeDigest())
	}
	return childErr
}

// copyFile copies the woven binary to a user-chosen path, preserving
// executability.
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o755)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// cmdAttach streams an existing trace file into an rprism-serve session
// over the capture wire protocol — segment-framed, resumable, finalized
// into a content digest — instead of one monolithic PUT /traces upload:
//
//	rprism attach -url http://localhost:8372 -trace run.trace
func cmdAttach(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("attach", flag.ExitOnError)
	url := fs.String("url", "", "rprism-serve base URL")
	path := fs.String("trace", "", "trace file to stream")
	name := fs.String("name", "", "override the trace name")
	batch := fs.Int("batch", 4096, "entries per segment frame")
	_ = fs.Parse(args)
	if *url == "" || *path == "" {
		return fmt.Errorf("attach: -url and -trace are required")
	}
	tr, err := loadTraceFile("trace", *path)
	if err != nil {
		return err
	}
	if *name != "" {
		tr.Name = *name
	}
	ack, err := capture.StreamTrace(ctx, strings.TrimRight(*url, "/"), tr, *batch, nil)
	if err != nil {
		return err
	}
	fmt.Printf("streamed %d entries in session %s\n", ack.Entries, ack.Session)
	if ack.Trace != nil {
		state := "stored"
		if !ack.Trace.Created {
			state = "deduplicated to existing trace"
		}
		fmt.Printf("finalized: %s (%s)\n", ack.Trace.ID, state)
	}
	return nil
}
