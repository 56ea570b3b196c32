package main

import (
	"os/exec"
	"syscall"
)

// stopWithParent makes the kernel kill the child if the benchmark dies
// without running its deferred clean-up, so no server outlives a run.
func stopWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
