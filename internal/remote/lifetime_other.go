//go:build !linux

package remote

import "os/exec"

// BindLifetime is a no-op off Linux: there is no parent-death signal, so
// spawned workers rely on Pool.Close alone.
func BindLifetime(cmd *exec.Cmd) {}
