package psu

// Code only this package's tests call. No figure, command or service
// reaches it, so it is compiled into the tests alone.

import (
	"time"
)

// Settled reports whether ch's output has reached its setpoint at now.
func (s *Supply) Settled(ch Channel, now time.Duration) (bool, error) {
	v, err := s.OutputVoltage(ch, now)
	if err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.chans[ch-1]
	if !st.output {
		return true, nil
	}
	const tol = 1e-9
	return v > st.setpoint-tol && v < st.setpoint+tol, nil
}
