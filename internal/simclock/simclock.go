// Package simclock provides the deterministic discrete-event clock that
// ties the LLAMA simulation together: power-supply voltage switching
// (50 Hz), receiver sampling (1 MHz blocks), human motion, and controller
// decisions all share one virtual timeline, so experiments are exactly
// reproducible from a seed.
package simclock

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// Clock is a discrete-event simulation clock. The zero value is not
// usable; call New.
type Clock struct {
	now    time.Duration
	queue  eventQueue
	nextID int64
}

// Event is a scheduled callback.
type event struct {
	at  time.Duration
	id  int64 // tie-break: FIFO for simultaneous events
	fn  func(now time.Duration)
	rec *Recurring
}

// Recurring is the handle of a repeating event; Cancel stops it.
type Recurring struct {
	period   time.Duration
	canceled bool
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].id < q[j].id
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// New returns a clock starting at t = 0.
func New() *Clock {
	return &Clock{}
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration { return c.now }

// Step executes the next pending event and returns true, or returns false
// when the queue is empty. Time jumps to the event's timestamp.
func (c *Clock) Step() bool {
	for c.queue.Len() > 0 {
		e := heap.Pop(&c.queue).(*event)
		if e.rec != nil && e.rec.canceled {
			continue
		}
		c.now = e.at
		e.fn(c.now)
		if e.rec != nil && !e.rec.canceled {
			c.nextID++
			heap.Push(&c.queue, &event{at: e.at + e.rec.period, id: c.nextID, fn: e.fn, rec: e.rec})
		}
		return true
	}
	return false
}

// RunUntil executes events in order until the virtual time would exceed
// deadline; the clock is left at the deadline. Events scheduled exactly at
// the deadline run.
func (c *Clock) RunUntil(deadline time.Duration) {
	if deadline < c.now {
		panic(fmt.Sprintf("simclock: deadline %v before now %v", deadline, c.now))
	}
	for c.queue.Len() > 0 && c.queue[0].at <= deadline {
		c.Step()
	}
	c.now = deadline
}

// RunFor advances the clock by d, executing due events.
func (c *Clock) RunFor(d time.Duration) { c.RunUntil(c.now + d) }

// RNG derives a deterministic random stream from a master seed and a
// stream label, so independent model components (noise, scatterers,
// motion) never share or race a generator.
func RNG(masterSeed int64, stream string) *rand.Rand {
	h := int64(1469598103934665603) // FNV-1a offset basis
	for _, b := range []byte(stream) {
		h ^= int64(b)
		h *= 1099511628211
	}
	return rand.New(rand.NewSource(masterSeed ^ h))
}
