// Package core assembles the full LLAMA system of Fig. 5: the metasurface
// in a radio scene, the programmable bias supply, the receiver's RSSI
// measurement path, and the centralized controller closing the loop.
//
// Two integrations are provided. System wires the components in-process
// for fast simulation; NetworkedSystem runs the identical control loop
// over real sockets — SCPI over TCP to the supply (as the paper's
// VISA-scripted Tektronix 2230G) and the binary RSSI report protocol over
// UDP from the receiver — so the protocol stack itself is exercised
// end to end.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/llama-surface/llama/internal/channel"
	"github.com/llama-surface/llama/internal/control"
	"github.com/llama-surface/llama/internal/metasurface"
	"github.com/llama-surface/llama/internal/psu"
	"github.com/llama-surface/llama/internal/signal"
	"github.com/llama-surface/llama/internal/simclock"
	"github.com/llama-surface/llama/internal/units"
)

// Config describes a closed-loop deployment.
type Config struct {
	// Design is the surface to build (defaults to the paper's optimized
	// FR4 design at the default carrier when zero).
	Design metasurface.Design
	// Mode selects transmissive or reflective deployment.
	Mode metasurface.Mode
	// Geom fixes the scene distances; a zero value defaults to the
	// paper's 48 cm mismatched transmissive bench.
	Geom channel.Geometry
	// TxPowerW is the transmit power (10 mW default).
	TxPowerW float64
	// Env is the propagation environment (absorber default).
	Env channel.Environment
	// Seed drives every random stream in the system.
	Seed int64
	// SamplesPerMeasure is the baseband block length per RSSI estimate
	// (256 default — 256 µs at the 1 MHz sample rate).
	SamplesPerMeasure int
	// SwitchPeriod is the supply dwell per bias state (20 ms default,
	// the 2230G's 50 Hz limit).
	SwitchPeriod time.Duration
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Design.CenterHz == 0 {
		c.Design = metasurface.OptimizedFR4Design(units.DefaultCarrierHz)
	}
	if c.Geom == (channel.Geometry{}) {
		c.Geom = channel.Geometry{TxRx: 0.48, TxSurface: 0.24, SurfaceRx: 0.24}
	}
	if c.TxPowerW == 0 {
		c.TxPowerW = 10e-3
	}
	if c.Env.Name == "" && len(c.Env.Scatterers) == 0 {
		c.Env = channel.Absorber()
	}
	if c.SamplesPerMeasure == 0 {
		c.SamplesPerMeasure = 256
	}
	if c.SwitchPeriod == 0 {
		c.SwitchPeriod = psu.MinSwitchInterval
	}
	return c
}

// System is the in-process closed loop.
type System struct {
	// Clock is the shared virtual timeline.
	Clock *simclock.Clock
	// Surface is the deployed metasurface.
	Surface *metasurface.Surface
	// Scene is the radio configuration the receiver experiences.
	Scene *channel.Scene
	// Supply is the bias instrument; its slewed output is what actually
	// reaches the varactors.
	Supply *psu.Supply

	cfg  Config
	tone *signal.ToneSource
	rng  *rand.Rand
	buf  []complex128
}

// NewSystem builds and validates the closed loop.
func NewSystem(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	surf, err := metasurface.New(cfg.Design)
	if err != nil {
		return nil, err
	}
	scene := channel.DefaultScene(surf, cfg.Geom.TxRx)
	scene.Mode = cfg.Mode
	scene.Geom = cfg.Geom
	scene.TxPowerW = cfg.TxPowerW
	scene.Env = cfg.Env
	if err := scene.Validate(); err != nil {
		return nil, err
	}
	supply := psu.New()
	if err := supply.SetOutput(psu.CH1, true); err != nil {
		return nil, err
	}
	if err := supply.SetOutput(psu.CH2, true); err != nil {
		return nil, err
	}
	return &System{
		Clock:   simclock.New(),
		Surface: surf,
		Scene:   scene,
		Supply:  supply,
		cfg:     cfg,
		tone:    signal.NewToneSource(500e3, 1e6, 1),
		rng:     simclock.RNG(cfg.Seed, "core.rssi"),
		buf:     make([]complex128, cfg.SamplesPerMeasure),
	}, nil
}

// applySupplyToSurface pushes the supply's current *output* voltages into
// the surface model — the physical wiring of Fig. 5.
func (s *System) applySupplyToSurface() error {
	vx, err := s.Supply.OutputVoltage(psu.CH1, s.Clock.Now())
	if err != nil {
		return err
	}
	vy, err := s.Supply.OutputVoltage(psu.CH2, s.Clock.Now())
	if err != nil {
		return err
	}
	s.Surface.SetBias(vx, vy)
	return nil
}

// Actuator returns the control-side bias setter: program the supply,
// dwell one switch period (virtual time), then refresh the surface from
// the settled output.
func (s *System) Actuator() control.Actuator {
	return control.ActuatorFunc(func(vx, vy float64) error {
		if err := s.Supply.SetBoth(vx, vy, s.Clock.Now()); err != nil {
			return fmt.Errorf("core: program supply: %w", err)
		}
		s.Clock.RunFor(s.cfg.SwitchPeriod)
		return s.applySupplyToSurface()
	})
}

// MeasureRSSI simulates one receiver measurement at the current virtual
// time: a block of the transmitted tone through the scene's field
// transfer, plus thermal noise, through the block power estimator.
func (s *System) MeasureRSSI() float64 {
	h := s.Scene.FieldTransfer()
	s.tone.Fill(s.buf)
	// Field scaling: per-sample amplitude carries sqrt(TxPower)·h.
	amp := complex(sqrt(s.Scene.TxPowerW), 0) * h
	signal.Scale(s.buf, amp)
	signal.AddAWGN(s.buf, s.Scene.NoisePowerW(), s.rng)
	return signal.PowerDBm(s.buf)
}

// Sensor returns the control-side measurement source.
func (s *System) Sensor() control.Sensor {
	return control.SensorFunc(func() (float64, error) {
		return s.MeasureRSSI(), nil
	})
}

// Optimize runs Algorithm 1 end to end and leaves the surface at the
// optimum. The elapsed virtual time matches the paper's 0.02·N·T² model.
func (s *System) Optimize(ctx context.Context, cfg control.SweepConfig) (control.Result, error) {
	return control.CoarseToFine(ctx, cfg, s.Actuator(), s.Sensor())
}

// FullScan runs the exhaustive reference sweep.
func (s *System) FullScan(ctx context.Context, cfg control.SweepConfig, stepV float64) (control.Result, error) {
	return control.FullScan(ctx, cfg, stepV, s.Actuator(), s.Sensor())
}

// BaselineDBm returns the received power with the surface absent — the
// "without metasurface" comparison of Figs. 16/17/20/22.
func (s *System) BaselineDBm() float64 {
	bare := *s.Scene
	bare.Surface = nil
	return bare.ReceivedPowerDBm()
}

// CurrentDBm returns the noiseless received power with the surface at its
// present bias.
func (s *System) CurrentDBm() float64 { return s.Scene.ReceivedPowerDBm() }

// sqrt guards math.Sqrt against the zero-power edge.
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
