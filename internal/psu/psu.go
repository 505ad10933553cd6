// Package psu models the programmable DC power supply that biases the
// LLAMA metasurface: a Tektronix 2230G-class triple-channel instrument
// (§3.3, [3]) with 0–30 V channels, a bounded voltage switch rate (50 Hz)
// and a finite settling slew.
//
// The model is purely stateful with explicit virtual-time injection, so it
// runs identically under the discrete-event simulator and behind the SCPI
// network server (package scpi).
package psu

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Channel identifies one output channel (CH1..CH3).
type Channel int

// The instrument's three channels. LLAMA uses CH1 for the X-axis bias and
// CH2 for the Y axis.
const (
	CH1 Channel = 1
	CH2 Channel = 2
	CH3 Channel = 3
)

// String implements fmt.Stringer.
func (c Channel) String() string { return fmt.Sprintf("CH%d", int(c)) }

// Valid reports whether the channel exists on the instrument.
func (c Channel) Valid() bool { return c >= CH1 && c <= CH3 }

// Instrument limits, matching the 2230G datasheet and the paper's usage.
const (
	// MaxVoltage is the per-channel programmable limit in volts.
	MaxVoltage = 30.0
	// MinSwitchInterval is the shortest time between setpoint changes —
	// the paper drives the supply at up to 50 Hz.
	MinSwitchInterval = 20 * time.Millisecond
	// SlewVoltsPerSecond is the output settling slew rate.
	SlewVoltsPerSecond = 2000.0
	// IDN is the *IDN? identification string.
	IDN = "TEKTRONIX,2230G-30-1,9200001,1.16-1.04"
)

// ErrTooFast is returned when a setpoint change arrives before
// MinSwitchInterval has elapsed since the previous change on any channel.
var ErrTooFast = errors.New("psu: setpoint change faster than 50 Hz switch limit")

// ErrInvalidChannel is returned for channel numbers outside CH1..CH3.
var ErrInvalidChannel = errors.New("psu: invalid channel")

// ErrVoltageRange is returned for setpoints outside [0, MaxVoltage].
var ErrVoltageRange = errors.New("psu: voltage outside 0–30 V range")

type channelState struct {
	setpoint   float64
	settleFrom float64
	changedAt  time.Duration
	output     bool
}

// Supply is the instrument model. It is safe for concurrent use: the SCPI
// server serves multiple connections.
type Supply struct {
	mu         sync.Mutex
	chans      [3]channelState
	selected   Channel
	lastChange time.Duration
	everSet    bool
}

// New returns a Supply with all outputs off, setpoints at 0 V and CH1
// selected.
func New() *Supply {
	return &Supply{selected: CH1}
}

// Select makes ch the target of channel-implicit commands (INST:SEL).
func (s *Supply) Select(ch Channel) error {
	if !ch.Valid() {
		return fmt.Errorf("%w: %d", ErrInvalidChannel, int(ch))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.selected = ch
	return nil
}

// Selected returns the currently selected channel.
func (s *Supply) Selected() Channel {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.selected
}

// SetVoltage programs the setpoint of ch at virtual time now. It enforces
// the 50 Hz global switch-rate limit and the 0–30 V range.
func (s *Supply) SetVoltage(ch Channel, v float64, now time.Duration) error {
	if !ch.Valid() {
		return fmt.Errorf("%w: %d", ErrInvalidChannel, int(ch))
	}
	if v < 0 || v > MaxVoltage {
		return fmt.Errorf("%w: %g V", ErrVoltageRange, v)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.everSet && now-s.lastChange < MinSwitchInterval {
		return fmt.Errorf("%w: %v since last change", ErrTooFast, now-s.lastChange)
	}
	st := &s.chans[ch-1]
	st.settleFrom = s.lockedOutputVoltage(ch, now)
	st.setpoint = v
	st.changedAt = now
	s.lastChange = now
	s.everSet = true
	return nil
}

// SetBoth programs CH1 and CH2 together (one switch event): the paper's
// controller changes both axis biases per sweep step.
func (s *Supply) SetBoth(v1, v2 float64, now time.Duration) error {
	if v1 < 0 || v1 > MaxVoltage || v2 < 0 || v2 > MaxVoltage {
		return fmt.Errorf("%w: %g/%g V", ErrVoltageRange, v1, v2)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.everSet && now-s.lastChange < MinSwitchInterval {
		return fmt.Errorf("%w: %v since last change", ErrTooFast, now-s.lastChange)
	}
	for i, v := range []float64{v1, v2} {
		ch := Channel(i + 1)
		st := &s.chans[i]
		st.settleFrom = s.lockedOutputVoltage(ch, now)
		st.setpoint = v
		st.changedAt = now
	}
	s.lastChange = now
	s.everSet = true
	return nil
}

// Setpoint returns the programmed voltage of ch.
func (s *Supply) Setpoint(ch Channel) (float64, error) {
	if !ch.Valid() {
		return 0, fmt.Errorf("%w: %d", ErrInvalidChannel, int(ch))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.chans[ch-1].setpoint, nil
}

// SetOutput enables or disables ch's output stage.
func (s *Supply) SetOutput(ch Channel, on bool) error {
	if !ch.Valid() {
		return fmt.Errorf("%w: %d", ErrInvalidChannel, int(ch))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chans[ch-1].output = on
	return nil
}

// Output reports whether ch's output stage is enabled.
func (s *Supply) Output(ch Channel) (bool, error) {
	if !ch.Valid() {
		return false, fmt.Errorf("%w: %d", ErrInvalidChannel, int(ch))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.chans[ch-1].output, nil
}

// OutputVoltage returns the actual terminal voltage of ch at virtual time
// now: zero when the output is off, slew-limited toward the setpoint
// otherwise.
func (s *Supply) OutputVoltage(ch Channel, now time.Duration) (float64, error) {
	if !ch.Valid() {
		return 0, fmt.Errorf("%w: %d", ErrInvalidChannel, int(ch))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lockedOutputVoltage(ch, now), nil
}

// lockedOutputVoltage computes the slewed output; callers hold s.mu.
func (s *Supply) lockedOutputVoltage(ch Channel, now time.Duration) float64 {
	st := s.chans[ch-1]
	if !st.output {
		return 0
	}
	elapsed := now - st.changedAt
	if elapsed < 0 {
		elapsed = 0
	}
	maxStep := SlewVoltsPerSecond * elapsed.Seconds()
	diff := st.setpoint - st.settleFrom
	switch {
	case diff > maxStep:
		return st.settleFrom + maxStep
	case diff < -maxStep:
		return st.settleFrom - maxStep
	default:
		return st.setpoint
	}
}

// String implements fmt.Stringer.
func (s *Supply) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("2230G[%s sel, CH1=%.2fV CH2=%.2fV CH3=%.2fV]",
		s.selected, s.chans[0].setpoint, s.chans[1].setpoint, s.chans[2].setpoint)
}
