package fleet

import "fmt"

// checkDueHeap reports how the coordinator's due heap disagrees with
// its lease records: it must hold every record exactly once, each at
// its stored index, keyed by its state's due time, in heap order.
func (c *Coordinator) checkDueHeap() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.due) != len(c.leases) {
		return fmt.Errorf("due heap holds %d records, lease table %d", len(c.due), len(c.leases))
	}
	for i, l := range c.due {
		if c.leases[l.id] != l {
			return fmt.Errorf("due heap slot %d holds %s, which is not in the lease table", i, l.id)
		}
		if l.idx != i {
			return fmt.Errorf("lease %s sits at slot %d but records index %d", l.id, i, l.idx)
		}
		want := l.deadline
		if l.state != leaseLive {
			want = l.ended.Add(2 * c.ttl)
		}
		if !l.due.Equal(want) {
			return fmt.Errorf("lease %s (state %d) is due %s, want %s", l.id, l.state, l.due, want)
		}
		if i > 0 && l.due.Before(c.due[(i-1)/2].due) {
			return fmt.Errorf("lease %s at slot %d is due before its parent", l.id, i)
		}
	}
	return nil
}
