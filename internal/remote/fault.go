package remote

import (
	"fmt"
	"strconv"
	"strings"
)

// Fault injection for the chaos test harness. A djworker started with
// DJ_FAULT set misbehaves on exactly one /v2/run request — the After-th
// one it serves (0-indexed) — in one of three ways:
//
//	crash    exit(137) before responding, like a kill -9 mid-stage
//	hang     never respond; the coordinator's request timeout fires
//	corrupt  answer 200 OK with garbage bytes instead of a frame
//
// The spec grammar is "<mode>" or "<mode>:after=<n>" (default n = 0),
// e.g. DJ_FAULT=crash:after=2. The coordinator's worker spawner scrubs
// DJ_FAULT from child environments so a fault aimed at the test process
// never leaks into the fleet; per-worker faults are addressed with
// DJ_FAULT_W<id> instead (see pool.go).
type Fault struct {
	Mode  string // "" (none) | "crash" | "hang" | "corrupt"
	After int    // which /v2/run request (0-indexed) triggers it
}

// Active reports whether a fault is armed.
func (f Fault) Active() bool { return f.Mode != "" }

// ParseFault parses a DJ_FAULT spec. The empty string is no fault.
func ParseFault(spec string) (Fault, error) {
	if spec == "" {
		return Fault{}, nil
	}
	mode, rest, _ := strings.Cut(spec, ":")
	f := Fault{Mode: mode}
	switch mode {
	case "crash", "hang", "corrupt":
	default:
		return Fault{}, fmt.Errorf("remote: unknown fault mode %q", mode)
	}
	if rest != "" {
		k, v, ok := strings.Cut(rest, "=")
		if !ok || k != "after" {
			return Fault{}, fmt.Errorf("remote: bad fault option %q (want after=<n>)", rest)
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return Fault{}, fmt.Errorf("remote: bad fault trigger %q", v)
		}
		f.After = n
	}
	return f, nil
}
