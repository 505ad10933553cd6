package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"github.com/llama-surface/llama/internal/store"
)

// Timing records one experiment's cost, summed across seeds when the run
// is replicated.
type Timing struct {
	// ID is the experiment.
	ID string
	// Elapsed is the wall-clock span the experiment occupied: from its
	// first job starting to its last job finishing (summed across seeds).
	Elapsed time.Duration
	// Busy is the total compute time across the experiment's jobs. For an
	// unsharded experiment Busy == Elapsed; for a sharded sweep
	// Busy/Elapsed is the shard speedup the fan-out achieved.
	Busy time.Duration
	// Rows is the assembled table's row count (per seed).
	Rows int
	// Points is the sweep axis length of a sharded experiment (the
	// "shards" Render prints, whatever the batch size), and 1 for an
	// unsharded one, which runs its whole axis as a single job. It is
	// not the job count.
	Points int
}

// Report summarises one run — an Execute call or a scheduler
// submission: the per-seed results in ID order, per-experiment wall
// time, and the total wall time of the fan-out.
type Report struct {
	// Seeds are the seeds run, in the order given, each once.
	Seeds []int64
	// Concurrency is the resolved worker count, capped at the run's job
	// count.
	Concurrency int
	// Wall is the end-to-end wall time of the whole run.
	Wall time.Duration
	// Results holds the tables for Seeds[0], in ID order — deep-equal to
	// running each experiment serially (Run) at that seed.
	Results []*Result
	// Timings lists per-experiment wall time (summed across seeds), in
	// ID order.
	Timings []Timing
	// Replicated aggregates each experiment across all seeds; nil when
	// the run used a single seed.
	Replicated []*ReplicatedResult
	// ShardRows records whether sweep points ran as individual jobs.
	ShardRows bool
	// Salvaged carries the partial tables of sweeps that failed mid-shard:
	// the contiguous prefix of completed points, in cell order, so a late
	// point failure does not discard every finished row.
	Salvaged []*Result
	// CacheHits and CacheMisses are the metasurface response-cache
	// lookups the whole run performed (global-counter delta from run
	// start to end — exact for any worker count, though concurrent runs
	// in the same process would cross-attribute). Both zero when caching
	// is disabled.
	CacheHits, CacheMisses uint64
	// BatchRows records the per-job point batch size the run used; 1
	// when rows were not sharded.
	BatchRows int
	// ReusedCells counts the (experiment, seed) cells answered from the
	// results store instead of recomputed (resume runs only), and
	// ComputedCells the cells computed fresh this run.
	ReusedCells, ComputedCells int
	// PersistedCells counts the freshly computed cells written to the
	// results store.
	PersistedCells int
	// StoreWarnings lists the stored records that existed but could not
	// be reused (corrupt, truncated, schema-mismatched, or shaped unlike
	// the current sweep), each naming the experiment, seed and file.
	// Those cells were recomputed.
	StoreWarnings []string
}

// Render writes the timing summary as an aligned text table. Sharded
// sweeps additionally report their job count and the busy/wall shard
// speedup the fan-out achieved.
func (rep *Report) Render(w io.Writer) error {
	var sb strings.Builder
	mode := ""
	if rep.ShardRows {
		mode = ", row-sharded"
		if rep.BatchRows > 1 {
			mode = fmt.Sprintf("%s ×%d-point batches", mode, rep.BatchRows)
		}
	}
	fmt.Fprintf(&sb, "== engine: %d experiments × %d seed(s), %d worker(s), wall %v%s\n",
		len(rep.Timings), len(rep.Seeds), rep.Concurrency, rep.Wall.Round(time.Microsecond), mode)
	width := 0
	for _, t := range rep.Timings {
		if len(t.ID) > width {
			width = len(t.ID)
		}
	}
	for _, t := range rep.Timings {
		fmt.Fprintf(&sb, "%-*s  %12v  %4d rows", width, t.ID, t.Elapsed.Round(time.Microsecond), t.Rows)
		if t.Points > 1 {
			speedup := 1.0
			if t.Elapsed > 0 {
				speedup = float64(t.Busy) / float64(t.Elapsed)
			}
			fmt.Fprintf(&sb, "  %4d shards  busy %v (%.1f×)",
				t.Points, t.Busy.Round(time.Microsecond), speedup)
		}
		sb.WriteByte('\n')
	}
	if n := rep.CacheHits + rep.CacheMisses; n > 0 {
		fmt.Fprintf(&sb, "cache: %d hits / %d misses (%.1f%% hit rate)\n",
			rep.CacheHits, rep.CacheMisses, 100*float64(rep.CacheHits)/float64(n))
	}
	if rep.ReusedCells > 0 || rep.PersistedCells > 0 || len(rep.StoreWarnings) > 0 {
		fmt.Fprintf(&sb, "store: reused %d cell(s), recomputed %d, persisted %d\n",
			rep.ReusedCells, rep.ComputedCells, rep.PersistedCells)
	}
	for _, warn := range rep.StoreWarnings {
		// Warnings already carry their "store:"/"experiments:" context;
		// prefix only the severity.
		fmt.Fprintf(&sb, "warning: %s\n", warn)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// ReplicatedResult aggregates one experiment across several seeds:
// per-cell mean and sample standard deviation over the seed axis, so the
// figure tables carry error bars like the paper's.
type ReplicatedResult struct {
	// ID and Title identify the underlying experiment.
	ID    string
	Title string
	// Columns labels the numeric columns (same as the per-seed Result).
	Columns []string
	// Seeds are the replication seeds, in run order.
	Seeds []int64
	// Mean and Stddev are per-cell statistics over the seed axis; both
	// have the row/column shape of the per-seed tables. Stddev is the
	// sample standard deviation (n−1), zero for a single seed.
	Mean   [][]float64
	Stddev [][]float64
	// Elapsed is the total wall time this experiment cost across seeds.
	Elapsed time.Duration
}

// Render writes the aggregate as an aligned text table. Cells whose
// spread is exactly zero (typically the x-axis column, identical across
// seeds) render as the plain mean; the rest render as mean±stddev.
func (r *ReplicatedResult) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s [%d seeds]\n", r.ID, r.Title, len(r.Seeds)); err != nil {
		return err
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Mean))
	for ri, row := range r.Mean {
		cells[ri] = make([]string, len(row))
		for ci, m := range row {
			s := formatCell(m)
			if sd := r.Stddev[ri][ci]; sd != 0 {
				s += "±" + formatCell(sd)
			}
			cells[ri][ci] = s
			if n := len([]rune(cells[ri][ci])); n > widths[ci] {
				widths[ci] = n
			}
		}
	}
	var sb strings.Builder
	for i, c := range r.Columns {
		fmt.Fprintf(&sb, "%*s  ", widths[i], c)
	}
	sb.WriteByte('\n')
	// fmt pads %*s by rune count, so the rune-measured widths align
	// even though "±" and "—" are multi-byte.
	for _, row := range cells {
		for i, c := range row {
			fmt.Fprintf(&sb, "%*s  ", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// Options configures one Execute run (the shape llama.RunExperiments
// takes).
type Options struct {
	// IDs restricts the run; nil means every registered experiment.
	IDs []string
	// Seeds are the replication seeds; nil means {1}. A repeated seed
	// runs once, at its first appearance.
	Seeds []int64
	// Concurrency bounds the worker pool; ≤0 means GOMAXPROCS.
	Concurrency int
	// ShardRows splits each sweep-shaped experiment's rows across the
	// pool, so even a single experiment saturates the workers. Output is
	// bit-identical either way.
	ShardRows bool
	// BatchRows groups that many consecutive sweep points into one
	// queued job, amortizing per-job queue overhead on axes with many
	// cheap points. ≤1 means one point per job; without ShardRows it is
	// ignored and recorded as 1. Output is bit-identical either way.
	BatchRows int
	// StoreDir, when non-empty, opens (creating if needed) a durable
	// results store there and persists every freshly computed
	// (experiment, seed) cell into it.
	StoreDir string
	// Resume reuses valid records already in StoreDir instead of
	// recomputing their cells; missing, corrupt or shape-mismatched
	// records are recomputed and re-persisted. Output is bit-identical
	// to a fresh run. Requires StoreDir.
	Resume bool
}

// Execute is the one-shot path into the scheduler: it lays opts out as
// one submission, runs it on a private scheduler and returns the
// combined report. On failure the report carries whatever completed,
// and the error names the experiment, seed and (for sharded sweeps)
// point that failed.
func Execute(ctx context.Context, opts Options) (*Report, error) {
	var st *store.Store
	if opts.StoreDir != "" {
		var err error
		if st, err = store.Open(opts.StoreDir); err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
	}
	spec := RunSpec{IDs: opts.IDs, Seeds: opts.Seeds, ShardRows: opts.ShardRows, BatchRows: opts.BatchRows, Resume: opts.Resume}
	sub, err := newSubmission(ctx, spec, st)
	if err != nil {
		return nil, err
	}
	// Warm-start: when the submission queued a job, import every
	// persisted response table before any compute, so a fresh process
	// answers previously computed physics from memory, and persist the
	// (possibly grown) tables after the run. A run the store answers in
	// full computes nothing, so it reads and writes no table — not even
	// tables an earlier run left in memory. Both directions are pure
	// acceleration — their warnings ride in StoreWarnings, never fail
	// the run.
	warm := st != nil && len(sub.queue) > 0
	var loadWarns []string
	if warm {
		_, _, loadWarns = LoadResponseTables(st)
	}
	// Size the pool to the run: never more workers than jobs.
	workers := opts.Concurrency
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := NewScheduler(SchedulerConfig{Workers: max(1, min(workers, len(sub.queue))), Store: st})
	err = s.launch(sub, laneNormal)
	if err == nil {
		<-sub.done
	}
	s.Close()
	if err != nil {
		return nil, err
	}
	rep := sub.report
	var saveWarns []string
	if warm {
		_, _, saveWarns = SaveResponseTables(st)
	}
	rep.StoreWarnings = append(append(loadWarns, rep.StoreWarnings...), saveWarns...)
	return rep, sub.err
}

// resolveIDs resolves an ID selection into the sorted, deduplicated
// concrete list, validating against the registry. An empty selection —
// nil or zero-length, as a decoded JSON `"ids": []` arrives — means
// every registered experiment; a duplicated ID counts once, so no spec
// can compute or emit a table twice.
func resolveIDs(sel []string) ([]string, error) {
	if len(sel) == 0 {
		return IDs(), nil
	}
	ids := append([]string(nil), sel...)
	sort.Strings(ids)
	ids = slices.Compact(ids)
	for _, id := range ids {
		if _, ok := sweeps[id]; !ok {
			return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
		}
	}
	return ids, nil
}

// cellRun is the per-(experiment, seed) collection state of one engine
// run. Workers write only into their job's own slot (points[p],
// elapsed[p], errs[p]), so the cell needs no locking; everything else is
// touched by the one goroutine that completes the cell — the settle
// that retires its last job, or finalize.
type cellRun struct {
	id   string
	seed int64
	// loaded marks a cell answered from the results store on a resume
	// run: res was decoded from its record, no jobs were queued, and it
	// is skipped by assembly and re-persistence.
	loaded bool
	// sweep is the cell's experiment; nil only for a loaded cell.
	sweep *Sweep
	// Per-point slots, one entry per axis point; a job records its
	// timing at the slot of its range's first point.
	points  []PointResult
	done    []bool
	errs    []error
	started []time.Time
	elapsed []time.Duration
	// res is the assembled table (nil when the cell failed or was
	// cancelled); partial is the salvaged prefix of a failed sweep.
	// assembled marks that assemble has run: it runs once per cell.
	res       *Result
	partial   *Result
	err       error
	assembled bool
	// pending counts the cell's unsettled jobs, set at layout; the
	// settle that takes it to zero completes the cell. storeErr is the
	// error of completion's store write.
	pending  atomic.Int32
	storeErr error
}

// busy sums the compute time of the cell's executed jobs.
func (c *cellRun) busy() time.Duration {
	var total time.Duration
	for _, d := range c.elapsed {
		total += d
	}
	return total
}

// span returns the wall-clock interval the cell occupied: first job start
// to last job end. Zero when nothing ran.
func (c *cellRun) span() time.Duration {
	var first, last time.Time
	for p := range c.started {
		if c.started[p].IsZero() {
			continue
		}
		end := c.started[p].Add(c.elapsed[p])
		if first.IsZero() || c.started[p].Before(first) {
			first = c.started[p]
		}
		if end.After(last) {
			last = end
		}
	}
	if first.IsZero() {
		return 0
	}
	return last.Sub(first)
}

// assemble folds the cell's point slots into its final table: points in
// axis order — bit-identical to the serial path — and on a point failure
// the contiguous completed prefix is salvaged and the failing point
// named. It runs once per computed cell, single-threaded over the
// cell's slots: in the settle that retires the cell's last job, or in
// finalize for a cell no settle completed; a second call is a no-op.
func (c *cellRun) assemble() {
	if c.assembled {
		return
	}
	c.assembled = true
	s := c.sweep
	// Lowest incomplete slot bounds the salvageable prefix. The failure
	// is named by the lowest point with a real (non-cancellation) error —
	// fail-fast cancellation lands context.Canceled in whatever points
	// were in flight, and those must not mask the point that actually
	// broke; a cancellation error is reported only when no real one
	// exists.
	prefix := s.Points
	for p := 0; p < s.Points; p++ {
		if !c.done[p] {
			prefix = p
			break
		}
	}
	fail := -1
	for p := 0; p < s.Points; p++ {
		if c.errs[p] == nil {
			continue
		}
		if fail == -1 {
			fail = p
		}
		if !errors.Is(c.errs[p], context.Canceled) {
			fail = p
			break
		}
	}
	if fail >= 0 {
		c.err = fmt.Errorf("experiments: %s (seed %d): %w",
			c.id, c.seed, &PointError{Point: fail, Points: s.Points, Err: c.errs[fail]})
	}
	res := s.newResult()
	for p := 0; p < prefix; p++ {
		s.appendPoint(res, c.points[p])
	}
	if prefix < s.Points {
		// Incomplete: keep the prefix as salvage, but never run Finish on
		// a truncated table — its summary would describe rows that do not
		// exist.
		c.partial = res
		return
	}
	if err := s.finish(res, c.seed); err != nil {
		c.err = fmt.Errorf("experiments: %s (seed %d): %w", c.id, c.seed, err)
		c.partial = res
		return
	}
	c.res = res
}

// replicate folds one experiment's per-seed tables into mean/stddev.
// Summation iterates seeds in run order, so the result is independent of
// which worker produced which table.
func replicate(id string, seeds []int64, runs []*Result, total time.Duration) (*ReplicatedResult, error) {
	first := runs[0]
	for _, r := range runs[1:] {
		if len(r.Rows) != len(first.Rows) || len(r.Columns) != len(first.Columns) {
			return nil, fmt.Errorf("experiments: %s: non-uniform shape across seeds (%dx%d vs %dx%d)",
				id, len(r.Rows), len(r.Columns), len(first.Rows), len(first.Columns))
		}
	}
	agg := &ReplicatedResult{
		ID:      id,
		Title:   first.Title,
		Columns: append([]string(nil), first.Columns...),
		Seeds:   append([]int64(nil), seeds...),
		Elapsed: total,
	}
	n := float64(len(runs))
	agg.Mean = make([][]float64, len(first.Rows))
	agg.Stddev = make([][]float64, len(first.Rows))
	for ri := range first.Rows {
		agg.Mean[ri] = make([]float64, len(first.Columns))
		agg.Stddev[ri] = make([]float64, len(first.Columns))
		for ci := range first.Columns {
			// Cells identical across seeds (x-axis columns, mostly) fold
			// exactly: sum/n rounding must not smear a zero spread into
			// ±1e-15 noise in the rendered error bars.
			v0, same := first.Rows[ri][ci], true
			var sum float64
			for _, r := range runs {
				v := r.Rows[ri][ci]
				same = same && v == v0
				sum += v
			}
			if same {
				agg.Mean[ri][ci] = v0
				continue
			}
			mean := sum / n
			agg.Mean[ri][ci] = mean
			if len(runs) > 1 {
				var ss float64
				for _, r := range runs {
					d := r.Rows[ri][ci] - mean
					ss += d * d
				}
				agg.Stddev[ri][ci] = math.Sqrt(ss / (n - 1))
			}
		}
	}
	return agg, nil
}
