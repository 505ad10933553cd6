package fleet

// The coordinator reaps lease records in due order. These tests hold
// it to the rule it replaced, a scan of every record on every call,
// and to its point: a call must not cost more as records are retained.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/llama-surface/llama/internal/experiments"
	"github.com/llama-surface/llama/internal/simclock"
)

// errRejected stands for any rejection of a malformed completion.
var errRejected = errors.New("rejected")

// modelLease is the model's copy of one lease record.
type modelLease struct {
	seed     int64 // names the job: one tab1 cell per submitted seed
	deadline time.Time
	state    leaseState
	ended    time.Time
}

// modelJob tracks whether a job can be dealt: it is queued and not
// settled.
type modelJob struct{ queued, settled bool }

// reapModel is the coordinator as it was before due-ordered reaping:
// every call first scans all records, expiring a live lease iff
// now.After(deadline) and purging a terminal one iff
// ended.Before(now-2×TTL).
type reapModel struct {
	ttl    time.Duration
	leases map[string]*modelLease
	jobs   map[int64]*modelJob
	stats  Stats
}

func (m *reapModel) reap(now time.Time) {
	for _, l := range m.leases {
		if l.state == leaseLive && now.After(l.deadline) {
			m.end(l, leaseExpired, now)
			m.stats.Expired++
			m.jobs[l.seed].queued = true
		}
	}
	horizon := now.Add(-2 * m.ttl)
	for id, l := range m.leases {
		if l.state != leaseLive && l.ended.Before(horizon) {
			delete(m.leases, id)
		}
	}
}

func (m *reapModel) end(l *modelLease, st leaseState, now time.Time) {
	if l.state == leaseLive {
		m.stats.Live--
	}
	l.state = st
	l.ended = now
}

// dealable reports whether some job is queued and unsettled.
func (m *reapModel) dealable() bool {
	for _, j := range m.jobs {
		if j.queued && !j.settled {
			return true
		}
	}
	return false
}

func (m *reapModel) heartbeat(id string, now time.Time) error {
	m.reap(now)
	l, ok := m.leases[id]
	if !ok {
		return ErrUnknownLease
	}
	switch l.state {
	case leaseExpired:
		return ErrLeaseExpired
	case leaseDone:
		return nil
	}
	l.deadline = now.Add(m.ttl)
	return nil
}

func (m *reapModel) complete(id string, malformed bool, now time.Time) error {
	m.reap(now)
	l, ok := m.leases[id]
	if !ok {
		return ErrUnknownLease
	}
	if l.state == leaseDone {
		return nil
	}
	j := m.jobs[l.seed]
	if malformed {
		if l.state == leaseLive {
			j.queued = true
		}
		m.end(l, leaseExpired, now)
		return errRejected
	}
	m.end(l, leaseDone, now)
	if j.settled {
		m.stats.Duplicates++
	} else {
		m.stats.Completed++
		j.settled = true
	}
	return nil
}

// sameAnswer compares a coordinator error with the model's, reading
// any error other than the lease sentinels as a rejection.
func sameAnswer(got, want error) bool {
	switch {
	case got == nil || want == nil:
		return got == want
	case errors.Is(want, errRejected):
		return !errors.Is(got, ErrUnknownLease) && !errors.Is(got, ErrLeaseExpired)
	}
	return errors.Is(got, want)
}

// TestReapMatchesFullScan drives a coordinator and the full-scan model
// through the same seeded sequence of submissions, leases, heartbeats,
// completions (well-formed, malformed, repeated, late), reaps and clock
// advances, some landing exactly on a deadline or a purge instant.
// After every step the counters, every known lease's heartbeat answer
// and the due heap's shape must agree with the model.
func TestReapMatchesFullScan(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { reapModelRun(t, seed, 1000) })
	}
}

func reapModelRun(t *testing.T, seed int64, steps int) {
	const ttl = 4 * time.Second
	sched, c, clk := simCoordinator(t, ttl)
	t.Cleanup(c.Close)
	base := time.Unix(1_700_000_000, 0)
	now := func() time.Time { return base.Add(clk.Now()) }
	res := tab1CellResult(t)
	rng := rand.New(rand.NewSource(seed))
	m := &reapModel{ttl: ttl, leases: map[string]*modelLease{}, jobs: map[int64]*modelJob{}}
	var known []string // every lease ID granted, in grant order
	var nextSeed int64

	// held lists the records the model still keeps, in grant order.
	held := func() []string {
		var ids []string
		for _, id := range known {
			if _, ok := m.leases[id]; ok {
				ids = append(ids, id)
			}
		}
		return ids
	}
	// pick favours records still kept, which can still change state.
	pick := func() string {
		if ids := held(); len(ids) > 0 && rng.Intn(4) > 0 {
			return ids[rng.Intn(len(ids))]
		}
		if len(known) == 0 || rng.Intn(4) == 0 {
			return "lease-0" // never granted
		}
		return known[rng.Intn(len(known))]
	}
	check := func(step int, what string) {
		t.Helper()
		if got := c.Stats(); !reflect.DeepEqual(got, m.stats) {
			t.Fatalf("step %d (%s): stats %+v, model %+v", step, what, got, m.stats)
		}
		if err := c.checkDueHeap(); err != nil {
			t.Fatalf("step %d (%s): %v", step, what, err)
		}
	}

	for step := 0; step < steps; step++ {
		var what string
		switch r := rng.Intn(20); {
		case r < 1 || !m.dealable() && r < 6:
			nextSeed++
			what = fmt.Sprintf("submit seed %d", nextSeed)
			if _, err := sched.Submit(context.Background(), experiments.RunSpec{IDs: []string{"tab1"}, Seeds: []int64{nextSeed}}); err != nil {
				t.Fatal(err)
			}
			m.jobs[nextSeed] = &modelJob{queued: true}
		case r < 8:
			what = "lease"
			m.reap(now())
			want := m.dealable()
			g, ok := c.Lease("w")
			if ok != want {
				t.Fatalf("step %d: lease granted %v, model %v", step, ok, want)
			}
			if !ok {
				break
			}
			j := m.jobs[g.Desc.Seed]
			if g.Desc.ID != "tab1" || j == nil || !j.queued || j.settled {
				t.Fatalf("step %d: granted %s, which the model holds undealable", step, g.Desc)
			}
			j.queued = false
			m.stats.Granted++
			m.stats.Live++
			if want := fmt.Sprintf("lease-%d", m.stats.Granted); g.ID != want {
				t.Fatalf("step %d: granted %s, want %s", step, g.ID, want)
			}
			m.leases[g.ID] = &modelLease{seed: g.Desc.Seed, deadline: now().Add(ttl)}
			known = append(known, g.ID)
		case r < 12:
			id, malformed := pick(), rng.Intn(4) == 0
			what = fmt.Sprintf("complete %s (malformed %v)", id, malformed)
			payload := res
			if malformed {
				payload = experiments.ExternalResult{}
			}
			want := m.complete(id, malformed, now())
			if got := c.Complete(id, payload, ""); !sameAnswer(got, want) {
				t.Fatalf("step %d: %s: %v, model %v", step, what, got, want)
			}
		case r < 14:
			id := pick()
			what = "heartbeat " + id
			want := m.heartbeat(id, now())
			if got := c.Heartbeat(id); !sameAnswer(got, want) {
				t.Fatalf("step %d: %s: %v, model %v", step, what, got, want)
			}
		case r < 15:
			what = "reap"
			m.reap(now())
			c.Reap()
		default:
			d := time.Duration(rng.Int63n(int64(ttl / 2)))
			if ids := held(); len(ids) > 0 && rng.Intn(2) == 0 {
				// Land on a record's deadline or purge instant, or one
				// nanosecond past it.
				l := m.leases[ids[rng.Intn(len(ids))]]
				at := l.deadline
				if l.state != leaseLive {
					at = l.ended.Add(2 * ttl)
				}
				d = at.Sub(now()) + time.Duration(rng.Intn(2))
			}
			d = max(d, 0)
			what = fmt.Sprintf("advance %s", d)
			clk.RunFor(d)
		}
		check(step, what)
		for _, id := range known {
			if l, ok := m.leases[id]; ok && l.state == leaseLive && rng.Intn(4) > 0 {
				continue // heartbeating a live lease extends it; sample a quarter
			}
			want := m.heartbeat(id, now())
			if got := c.Heartbeat(id); !sameAnswer(got, want) {
				t.Fatalf("step %d (%s): heartbeat %s: %v, model %v", step, what, id, got, want)
			}
		}
		check(step, what+", heartbeats")
	}
	if m.stats.Expired == 0 || m.stats.Duplicates == 0 || len(m.leases) == len(known) {
		t.Fatalf("sequence never expired, duplicated or purged: %+v, %d of %d records kept", m.stats, len(m.leases), len(known))
	}
}

// tab1CellResult computes the completion payload of a tab1 cell job for
// the desc a scheduler grants. Every tab1 cell job covers the same
// whole-axis range, so the payload completes any of them.
func tab1CellResult(tb testing.TB) experiments.ExternalResult {
	tb.Helper()
	sched := experiments.NewScheduler(experiments.SchedulerConfig{LeaseOnly: true})
	defer sched.Close()
	if _, err := sched.Submit(context.Background(), experiments.RunSpec{IDs: []string{"tab1"}}); err != nil {
		tb.Fatal(err)
	}
	job := sched.TryLease()
	if job == nil {
		tb.Fatal("tab1 submission queued no job")
	}
	res, err := experiments.ComputeJob(context.Background(), job.Desc())
	if err != nil {
		tb.Fatal(err)
	}
	if err := job.Complete(res); err != nil {
		tb.Fatal(err)
	}
	return res
}

// BenchmarkCoordinatorLeaseComplete times one Lease plus one Complete
// with a number of terminal records retained. The simulated clock
// stands still, so nothing purges; every 256 operations the coordinator is rebuilt
// and refilled, so the timed calls' own records never outnumber the
// retained ones much. Due-ordered reaping keeps retained=4096 within a
// small factor of retained=0.
func BenchmarkCoordinatorLeaseComplete(b *testing.B) {
	res := tab1CellResult(b)
	var err error
	for _, retained := range []int{0, 4096} {
		b.Run(fmt.Sprintf("retained=%d", retained), func(b *testing.B) {
			const chunk = 256
			var c *Coordinator
			var sched *experiments.Scheduler
			closeAll := func() {
				if c != nil {
					c.Close()
					sched.Close()
				}
			}
			defer closeAll()
			leaseComplete := func() {
				g, ok := c.Lease("bench")
				if !ok {
					b.Fatal("no job to lease")
				}
				if err := c.Complete(g.ID, res, ""); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%chunk == 0 {
					b.StopTimer()
					closeAll()
					sched = experiments.NewScheduler(experiments.SchedulerConfig{LeaseOnly: true})
					clk := simclock.New()
					c, err = NewCoordinator(Config{Sched: sched, TTL: time.Minute, Now: func() time.Time { return time.Unix(1_700_000_000, 0).Add(clk.Now()) }})
					if err != nil {
						b.Fatal(err)
					}
					// One spare job keeps the run from finalizing inside
					// the timed calls.
					seeds := make([]int64, retained+chunk+1)
					for s := range seeds {
						seeds[s] = int64(s + 1)
					}
					if _, err := sched.Submit(context.Background(), experiments.RunSpec{IDs: []string{"tab1"}, Seeds: seeds}); err != nil {
						b.Fatal(err)
					}
					for range retained {
						leaseComplete()
					}
					runtime.GC() // collect the refill's garbage outside the timing
					b.StartTimer()
				}
				leaseComplete()
			}
		})
	}
}
