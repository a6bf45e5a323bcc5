//go:build unix

package main

import (
	"os"
	"os/exec"
	"os/signal"
	"syscall"
)

// runChild runs the recorded program in its own process group and
// relays SIGINT/SIGTERM to that group — the recorder must outlive the
// signal to recover the capture, so it cannot simply share the terminal
// group's fate, and it must not swallow the signal either (the child is
// the one being asked to stop). Returns cmd.Wait's error.
func runChild(cmd *exec.Cmd) error {
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	// Register before the child starts: a signal that arrives as soon as
	// it runs must be relayed, not lost.
	sigs := make(chan os.Signal, 4)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	if err := cmd.Start(); err != nil {
		signal.Stop(sigs)
		return err
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case sig := <-sigs:
				if s, ok := sig.(syscall.Signal); ok {
					// Negative pid: the whole process group, so grandchildren
					// the recorded program spawned stop too.
					_ = syscall.Kill(-cmd.Process.Pid, s)
				}
			case <-done:
				return
			}
		}
	}()
	err := cmd.Wait()
	signal.Stop(sigs)
	close(done)
	return err
}

// childExitCode maps a child's failure to the exit code `rprism record`
// forwards: the child's own code, or the conventional 128+N when a
// signal ended it.
func childExitCode(ee *exec.ExitError) int {
	if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
		return 128 + int(ws.Signal())
	}
	if c := ee.ExitCode(); c >= 0 {
		return c
	}
	return 1
}
