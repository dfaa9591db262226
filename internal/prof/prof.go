// Package prof wires the standard runtime/pprof profilers to the CLI
// -cpuprofile/-memprofile flags shared by cmd/ccsim and cmd/experiments.
package prof

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// errWriter passes writes through to f and keeps the first error:
// runtime/pprof discards its writer's errors, so a profile lost to a full
// disk would otherwise go unnoticed.
type errWriter struct {
	f   *os.File
	err error
}

func (w *errWriter) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	if w.err == nil {
		w.err = err
	}
	return n, err
}

// Start begins CPU profiling into cpuPath (no-op when empty) and returns a
// stop function that ends the CPU profile and writes a heap profile to
// memPath (no-op when empty). stop returns every error met creating,
// writing or closing either file. Callers must run stop on every exit
// path — typically via defer from a run function that returns an exit code
// rather than calling os.Exit directly.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *errWriter
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		cpu = &errWriter{f: f}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			f.Close()
			return nil, err
		}
	}
	return func() error {
		var err error
		if cpu != nil {
			pprof.StopCPUProfile()
			err = errors.Join(cpu.err, cpu.f.Close())
		}
		if memPath != "" {
			err = errors.Join(err, writeHeap(memPath))
		}
		return err
	}, nil
}

// writeHeap writes a heap profile to path.
func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // publish up-to-date allocation stats
	w := &errWriter{f: f}
	err = pprof.WriteHeapProfile(w)
	return errors.Join(err, w.err, f.Close())
}

// ValidateProfile checks that path holds a well-formed runtime/pprof
// profile: a non-empty gzip stream (the pprof wire format) that
// decompresses to a non-empty protobuf payload. It is the round-trip
// check both CLIs' -cpuprofile/-memprofile tests share.
func ValidateProfile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return fmt.Errorf("%s is not a gzip stream (pprof wire format): %w", path, err)
	}
	defer zr.Close()
	n, err := io.Copy(io.Discard, zr)
	if err != nil {
		return fmt.Errorf("%s decompression failed: %w", path, err)
	}
	if n == 0 {
		return fmt.Errorf("%s decompressed to an empty profile", path)
	}
	return nil
}
