package experiments

// Code only this package's tests call. No figure, command or service
// reaches it, so it is compiled into the tests alone.

import (
	"context"
	"fmt"
)

// RunAll executes every experiment serially in ID order. It is the
// reference path the concurrent scheduler must reproduce bit-for-bit; on
// error the results computed so far are returned alongside it.
func RunAll(ctx context.Context, seed int64) ([]*Result, error) {
	var out []*Result
	for _, id := range IDs() {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		res, err := Run(ctx, id, seed)
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", id, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// Workers returns the resolved pool width.
func (s *Scheduler) Workers() int { return s.workers }
