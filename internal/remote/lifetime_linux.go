package remote

import (
	"os/exec"
	"syscall"
)

// BindLifetime makes the kernel SIGKILL cmd's process when the process
// that starts it dies, however it dies: an error exit that never reaches
// Pool.Close, or a SIGKILL of the coordinator itself. Call it before
// cmd.Start; it replaces cmd.SysProcAttr. The signal is tied to the
// starting OS thread, which the Go runtime keeps for the life of the
// process unless a goroutine exits while locked to it.
func BindLifetime(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
