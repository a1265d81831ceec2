package main

import "syscall"

// childProcAttr has the kernel kill kpd when the benchmark dies without
// stopping it, so that no server outlives a killed run.
func childProcAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
