// Package prof wires the standard runtime/pprof profiles into the CLIs
// (orambench, forksim) so hot paths can be inspected with `go tool
// pprof` without ad-hoc instrumentation.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartCPU begins a CPU profile written to path; path == "" disables
// profiling. The returned stop function (never nil) flushes and closes
// the profile and must be called before the process exits.
func StartCPU(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return func() {}, fmt.Errorf("prof: create cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return func() {}, fmt.Errorf("prof: start cpu profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// WriteHeap writes an allocation (heap) profile to path; path == ""
// is a no-op. A GC runs first so the profile reflects live objects and
// up-to-date allocation counters.
func WriteHeap(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("prof: create mem profile: %w", err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("prof: write mem profile: %w", err)
	}
	return nil
}
