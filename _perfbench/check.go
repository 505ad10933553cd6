package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"

	"github.com/llama-surface/llama/internal/experiments"
)

// errMismatch marks an output that differs from the serial reference.
var errMismatch = errors.New("output differs from the serial reference bytes")

// reference renders the CSV bytes of ids × seeds on the serial engine
// (one worker, unsharded, no store): the bytes every concurrent,
// resumed, served or leased run of the same spec must reproduce
// (determinism invariants 6, 7 and 9).
func reference(ctx context.Context, ids []string, seeds []int64) ([]byte, error) {
	rep, err := experiments.Execute(ctx, experiments.Options{IDs: ids, Seeds: seeds, Concurrency: 1})
	if err != nil {
		return nil, fmt.Errorf("serial reference for %v × %v: %w", ids, seeds, err)
	}
	var buf bytes.Buffer
	if err := rep.WriteTables(&buf, "csv"); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// layoutJobs returns the number of jobs the scheduler lays out for a
// sharded spec, read from a lease-only scheduler that never runs them.
func layoutJobs(ctx context.Context, ids []string, seeds []int64) (int, error) {
	s := experiments.NewScheduler(experiments.SchedulerConfig{LeaseOnly: true})
	defer s.Close()
	h, err := s.Submit(ctx, experiments.RunSpec{IDs: ids, Seeds: seeds, ShardRows: true})
	if err != nil {
		return 0, err
	}
	n := h.Progress().TotalJobs
	h.Cancel()
	<-h.Done()
	return n, nil
}

// dirKB returns the size of the regular files under dir in KB.
func dirKB(dir string) float64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return float64(total) / 1e3
}
