package main

import (
	"errors"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sync/atomic"
	"syscall"
)

// An open loop leaves the processor idle between ops, and an idle vCPU of
// a shared host halts: the next op then pays for the hypervisor waking it,
// possibly on another core, with caches cold, and what that costs depends
// on what the host is doing. Four runs of serve_mix_200 had p50 1.96–2.11 ms
// and p95 9.5–11.6 ms as they were, and 1.58–1.65 ms and 7.9–8.4 ms with a
// lowest-priority busy loop beside them; over ten runs the spread without
// was 10–19%. So while an open-loop workload is set up, one spinner per
// processor keeps the processors from halting. A spinner gives its
// processor up the moment anything else wants it, so it takes no time
// from the program; closed loops never idle and get none.

// spinArg, as the only argument, makes the binary a spinner.
const spinArg = "-spin-until-stdin-closes"

// spin is the whole life of a spinner: a busy loop at the lowest priority
// that ends when standard input is closed — by the parent, to stop it, or
// by the kernel, should the parent die.
func spin() {
	runtime.LockOSThread()
	// The calling thread's priority; refused, the loop still does its job.
	_ = syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19)
	var closed atomic.Bool
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin) // any error also means: stop
		closed.Store(true)
	}()
	for !closed.Load() {
	}
}

// spinners are the running spinner processes, one per processor.
type spinners struct {
	cmds  []*exec.Cmd
	stdin []io.Closer
}

func startSpinners() (*spinners, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	s := &spinners{}
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(exe, spinArg)
		in, err := cmd.StdinPipe()
		if err == nil {
			err = cmd.Start()
		}
		if err != nil {
			return nil, errors.Join(err, s.stop())
		}
		s.cmds, s.stdin = append(s.cmds, cmd), append(s.stdin, in)
	}
	return s, nil
}

// stop ends every spinner and waits until it has exited.
func (s *spinners) stop() error {
	var err error
	for i, cmd := range s.cmds {
		err = errors.Join(err, s.stdin[i].Close(), cmd.Wait())
	}
	s.cmds, s.stdin = nil, nil
	return err
}
