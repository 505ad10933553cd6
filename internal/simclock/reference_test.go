package simclock

// Code only this package's tests call. No figure, command or service
// reaches it, so it is compiled into the tests alone.

import (
	"container/heap"
	"time"
)

// Cancel stops future firings of the recurring event.
func (r *Recurring) Cancel() { r.canceled = true }

// Schedule runs fn once, delay after the current time. A negative delay
// panics: the simulator cannot deliver events to the past.
func (c *Clock) Schedule(delay time.Duration, fn func(now time.Duration)) {
	if delay < 0 {
		panic("simclock: negative delay")
	}
	if fn == nil {
		panic("simclock: nil event function")
	}
	c.nextID++
	heap.Push(&c.queue, &event{at: c.now + delay, id: c.nextID, fn: fn})
}

// ScheduleEvery runs fn every period, starting one period from now, until
// the returned handle is canceled. A non-positive period panics.
func (c *Clock) ScheduleEvery(period time.Duration, fn func(now time.Duration)) *Recurring {
	if period <= 0 {
		panic("simclock: non-positive period")
	}
	if fn == nil {
		panic("simclock: nil event function")
	}
	rec := &Recurring{period: period}
	c.nextID++
	heap.Push(&c.queue, &event{at: c.now + period, id: c.nextID, fn: fn, rec: rec})
	return rec
}

// Pending returns the number of queued events (recurring count once).
func (c *Clock) Pending() int { return c.queue.Len() }
