// Command llama-bench regenerates the paper's evaluation: every table and
// figure of §5 plus the DESIGN.md ablations, as text tables on stdout.
//
// Usage:
//
//	llama-bench -list                 list experiment IDs
//	llama-bench -run fig16            run one experiment
//	llama-bench -all                  run everything (the default)
//	llama-bench -seed 7 -run fig19    change the random seed
//	llama-bench -parallel             fan experiments out across GOMAXPROCS workers
//	llama-bench -parallel -seeds 5    replicate across 5 seeds; tables carry mean±stddev
//	llama-bench -shard-rows -run fig15  split one experiment's sweep rows across the pool
//	llama-bench -batch-rows 4         group 4 sweep points per sharded job
//	llama-bench -store DIR            persist every (experiment, seed) table into DIR
//	llama-bench -store DIR -resume    reuse stored cells; only missing seeds recompute
//	llama-bench -timeout 30s          bound the whole run
//
// With -store DIR a run that computes anything also warm-starts from
// (and re-persists) the per-design response tables under DIR/tables, so
// repeated invocations skip previously computed physics entirely. A
// -resume run the store answers in full computes nothing, so it reads
// and writes no table.
//
// Tables go to stdout (text, csv or json via -format); the per-experiment
// timing summary goes to stderr so piped output stays parseable.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"github.com/llama-surface/llama/internal/experiments"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		run      = flag.String("run", "", "run a single experiment by ID")
		all      = flag.Bool("all", false, "run every experiment")
		seed     = flag.Int64("seed", 1, "base random seed for workload generation")
		seeds    = flag.Int("seeds", 1, "replication count: run seeds seed..seed+N-1 and aggregate mean±stddev")
		parallel = flag.Bool("parallel", false, "fan experiments out across GOMAXPROCS workers (serial otherwise)")
		shard    = flag.Bool("shard-rows", false, "split each experiment's sweep rows into per-point jobs so even a single -run saturates the pool (implies -parallel; output is bit-identical)")
		batch    = flag.Int("batch-rows", 1, "group N consecutive sweep points per sharded job, amortizing queue overhead on huge axes (implies -shard-rows when > 1; output is bit-identical)")
		storeDir = flag.String("store", "", "persist each (experiment, seed) result table into this durable results store directory (created if missing)")
		resume   = flag.Bool("resume", false, "reuse valid stored cells from -store instead of recomputing them; missing, corrupt or schema-drifted records are recomputed and re-persisted (requires -store; output is bit-identical to a fresh run)")
		timeout  = flag.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
		format   = flag.String("format", "text", "output format: text, csv or json")
	)
	flag.Parse()
	if *batch > 1 {
		*shard = true
	}
	if *resume && *storeDir == "" {
		fatal(fmt.Errorf("-resume requires -store DIR"))
	}

	switch *format {
	case "text", "csv", "json":
	default:
		// Catch this before computing a full run only to fail at the
		// first emit.
		fatal(fmt.Errorf("unknown format %q (want text, csv or json)", *format))
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	switch {
	case *list:
		for _, id := range experiments.IDs() {
			fmt.Printf("%-14s %s\n", id, experiments.Describe(id))
		}
	default:
		if !*all && *run == "" && flag.NArg() > 0 {
			fatal(fmt.Errorf("unknown arguments %v; use -list, -run or -all", flag.Args()))
		}
		if *seeds < 1 {
			fatal(fmt.Errorf("-seeds %d: need at least one seed", *seeds))
		}
		opts := experiments.Options{Concurrency: 1, ShardRows: *shard, BatchRows: *batch, StoreDir: *storeDir, Resume: *resume}
		if *parallel || *shard {
			opts.Concurrency = 0 // Execute default: GOMAXPROCS
		}
		if *run != "" {
			// Single-experiment runs go through the same Execute path so
			// -seeds/-parallel/-timeout compose with -run.
			opts.IDs = []string{*run}
		}
		for s := int64(0); s < int64(*seeds); s++ {
			opts.Seeds = append(opts.Seeds, *seed+s)
		}
		rep, runErr := experiments.Execute(ctx, opts)
		if rep == nil {
			fatal(runErr)
		}
		// Emit whatever completed even when the run failed, so a late
		// failure doesn't throw away computed tables; then report which
		// experiment broke. WriteTables is the same renderer llama-serve
		// uses, so CLI stdout and service responses carry identical bytes
		// for identical specs (determinism invariant 7).
		emitErr := rep.WriteTables(os.Stdout, *format)
		if err := rep.Render(os.Stderr); err != nil {
			fatal(err)
		}
		if runErr != nil {
			fatal(runErr)
		}
		if emitErr != nil {
			fatal(emitErr)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "llama-bench:", err)
	os.Exit(1)
}
