// Package llama is a software reproduction of LLAMA — the Low-power
// Lattice of Actuated Metasurface Antennas from "Pushing the Physical
// Limits of IoT Devices with Programmable Metasurfaces" (NSDI 2021).
//
// LLAMA mitigates the 10–15 dB polarization-mismatch loss of cheap,
// single-antenna IoT devices by placing a varactor-tuned polarization
// rotator (a stack of quarter-wave plates around a birefringent layer,
// built on low-cost FR4) in the radio environment, and closing a control
// loop: the receiver reports RSSI, a controller sweeps the two bias
// voltages coarse-to-fine (Algorithm 1 of the paper), and the surface
// settles at the rotation angle that re-aligns the link.
//
// This package is the stable entry point. It exposes the surface and
// channel models, the closed-loop system (in-process or over real
// SCPI/TCP + telemetry/UDP sockets) and the experiment registry that
// regenerates every table and figure of the paper's evaluation:
//
//	surface := llama.NewSurface(llama.OptimizedFR4(llama.DefaultCarrierHz))
//	loop, err := llama.NewLoop(llama.LoopConfig{Seed: 1})
//	...
//	result, err := loop.Optimize(ctx)
//
// See examples/ for runnable scenarios and cmd/llama-bench for the
// evaluation harness.
package llama

import (
	"context"
	"fmt"
	"time"

	"github.com/llama-surface/llama/internal/channel"
	"github.com/llama-surface/llama/internal/control"
	"github.com/llama-surface/llama/internal/core"
	"github.com/llama-surface/llama/internal/experiments"
	"github.com/llama-surface/llama/internal/mat2"
	"github.com/llama-surface/llama/internal/metasurface"
	"github.com/llama-surface/llama/internal/store"
	"github.com/llama-surface/llama/internal/units"
)

// Frequency constants of the bands the paper targets.
const (
	// DefaultCarrierHz is the paper's default USRP carrier (2.44 GHz).
	DefaultCarrierHz = units.DefaultCarrierHz
	// ISMBandLow and ISMBandHigh bound the 2.4 GHz ISM band.
	ISMBandLow  = units.ISMBandLow
	ISMBandHigh = units.ISMBandHigh
	// RFIDBandCenter is the 900 MHz band of the §3.2 rescaled design.
	RFIDBandCenter = units.RFIDBandCenter
)

// Surface is the programmable metasurface: bias it with SetBias, query
// its Jones matrix, efficiency (Eq. 11) and rotation angle.
type Surface = metasurface.Surface

// Design describes a buildable surface stack.
type Design = metasurface.Design

// Mode selects transmissive or reflective deployment (Fig. 14).
type Mode = metasurface.Mode

// Deployment modes.
const (
	Transmissive = metasurface.Transmissive
	Reflective   = metasurface.Reflective
)

// Mat2 is the 2×2 complex Jones matrix surface queries return.
type Mat2 = mat2.Mat

// BatchPoint is one operating point — carrier frequency and the two bias
// voltages — of a batched surface evaluation.
type BatchPoint = metasurface.BatchPoint

// Axis selects a principal polarization axis of the surface.
type Axis = metasurface.Axis

// Principal axes.
const (
	AxisX = metasurface.AxisX
	AxisY = metasurface.AxisY
)

// JonesEfficiency extracts the power efficiency along one axis (Eq. 11)
// from a Jones matrix returned by Surface.Jones or Surface.JonesBatch.
func JonesEfficiency(m Mat2, axis Axis) float64 {
	return metasurface.JonesEfficiency(m, axis)
}

// Scene is a polarization-aware radio configuration: endpoints, geometry,
// optional surface, environment.
type Scene = channel.Scene

// Geometry fixes scene distances.
type Geometry = channel.Geometry

// Environment is the multipath surrounding.
type Environment = channel.Environment

// SweepConfig parameterizes the Algorithm 1 bias search.
type SweepConfig = control.SweepConfig

// SweepResult is the outcome of a bias search.
type SweepResult = control.Result

// OptimizedFR4 returns the paper's contribution: the low-cost two-layer
// FR4 polarization rotator, calibrated for the given carrier.
func OptimizedFR4(centerHz float64) Design {
	return metasurface.OptimizedFR4Design(centerHz)
}

// NaiveFR4 returns the Fig. 9 straw man: the scaled 10 GHz geometry
// fabricated on FR4, whose loss tangent ruins it.
func NaiveFR4(centerHz float64) Design {
	return metasurface.NaiveFR4Design(centerHz)
}

// Rogers5880 returns the Fig. 8 reference design on the expensive
// low-loss laminate.
func Rogers5880(centerHz float64) Design {
	return metasurface.Rogers5880Design(centerHz)
}

// NewSurface builds a Surface, panicking on an invalid design — intended
// for the prefab designs above. Use metasurface.New via BuildSurface for
// error-returning construction of custom designs.
func NewSurface(d Design) *Surface {
	return metasurface.MustNew(d)
}

// BuildSurface builds a Surface from a (possibly custom) design,
// returning a descriptive error when the design is unbuildable.
func BuildSurface(d Design) (*Surface, error) {
	return metasurface.New(d)
}

// CacheStats reports response-table hit/miss counts, as read from the
// one process-wide counter by GlobalCacheStats. Response tables are
// keyed by a fingerprint of the design's physical parameters and shared
// by every surface of that design, so one surface's computation is
// every sibling's hit.
type CacheStats = metasurface.CacheStats

// GlobalCacheStats returns the process-wide response-table counters
// aggregated across every surface (monotone; snapshot and subtract for
// windowed measurements).
func GlobalCacheStats() CacheStats { return metasurface.GlobalCacheStats() }

// Absorber returns the paper's controlled environment (no multipath).
func Absorber() Environment { return channel.Absorber() }

// Laboratory returns a seeded multipath-rich indoor environment with n
// scatterers (§5.1.2's laboratory).
func Laboratory(seed int64, n int) Environment { return channel.Laboratory(seed, n) }

// MismatchedLink returns the paper's standard bench: endpoints with
// orthogonal polarizations at txRx meters, the surface (nil for the
// baseline) halfway between, absorber walls.
func MismatchedLink(surface *Surface, txRx float64) *Scene {
	return channel.DefaultScene(surface, txRx)
}

// DefaultSweep returns the paper's operating point: N=2 iterations, T=5
// switches per axis, 0–30 V at the supply's 50 Hz switch limit, costing
// 0.02·N·T² = 1 s.
func DefaultSweep() SweepConfig { return control.DefaultSweepConfig() }

// LoopConfig configures a closed-loop deployment (see core.Config for
// field semantics). The zero value reproduces the paper's 48 cm
// mismatched transmissive bench.
type LoopConfig = core.Config

// Loop is the in-process closed-loop system: surface, scene, supply and
// measurement path on a shared virtual timeline.
type Loop struct {
	sys *core.System
}

// NewLoop builds a closed-loop system.
func NewLoop(cfg LoopConfig) (*Loop, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, fmt.Errorf("llama: %w", err)
	}
	return &Loop{sys: sys}, nil
}

// Surface returns the deployed surface.
func (l *Loop) Surface() *Surface { return l.sys.Surface }

// Scene returns the radio scene (mutate endpoints/environment before
// optimizing to model other deployments).
func (l *Loop) Scene() *Scene { return l.sys.Scene }

// Optimize runs the paper's Algorithm 1 and leaves the surface at the
// best bias found.
func (l *Loop) Optimize(ctx context.Context) (SweepResult, error) {
	return l.sys.Optimize(ctx, control.DefaultSweepConfig())
}

// OptimizeWith runs a custom sweep configuration.
func (l *Loop) OptimizeWith(ctx context.Context, cfg SweepConfig) (SweepResult, error) {
	return l.sys.Optimize(ctx, cfg)
}

// FullScan runs the exhaustive reference sweep with the given voltage
// step (1 V reproduces the paper's ~30 s scan).
func (l *Loop) FullScan(ctx context.Context, stepV float64) (SweepResult, error) {
	return l.sys.FullScan(ctx, control.DefaultSweepConfig(), stepV)
}

// GainDB returns the current improvement over the no-surface baseline —
// the quantity Figs. 16/17/22 report.
func (l *Loop) GainDB() float64 { return l.sys.CurrentDBm() - l.sys.BaselineDBm() }

// ReceivedDBm returns the current (noiseless) received power.
func (l *Loop) ReceivedDBm() float64 { return l.sys.CurrentDBm() }

// BaselineDBm returns the received power with the surface removed.
func (l *Loop) BaselineDBm() float64 { return l.sys.BaselineDBm() }

// ElapsedVirtual returns the virtual time consumed so far (sweep pacing
// at the supply's 50 Hz switch limit).
func (l *Loop) ElapsedVirtual() time.Duration { return l.sys.Clock.Now() }

// NetworkedLoop is the closed loop running over real loopback sockets:
// SCPI/TCP to the supply, binary UDP telemetry from the receiver.
type NetworkedLoop struct {
	ns *core.NetworkedSystem
}

// StartNetworkedLoop brings up the sockets; Close must be called.
func StartNetworkedLoop(ctx context.Context, cfg LoopConfig) (*NetworkedLoop, error) {
	ns, err := core.StartNetworked(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("llama: %w", err)
	}
	return &NetworkedLoop{ns: ns}, nil
}

// InstrumentID queries the bias supply's *IDN? over the SCPI session.
func (n *NetworkedLoop) InstrumentID() (string, error) { return n.ns.InstrumentID() }

// Optimize runs Algorithm 1 across the network legs.
func (n *NetworkedLoop) Optimize(ctx context.Context) (SweepResult, error) {
	return n.ns.Optimize(ctx, control.DefaultSweepConfig())
}

// GainDB returns the current improvement over the no-surface baseline.
func (n *NetworkedLoop) GainDB() float64 {
	return n.ns.CurrentDBm() - n.ns.BaselineDBm()
}

// Surface returns the deployed surface.
func (n *NetworkedLoop) Surface() *Surface { return n.ns.Surface }

// LostReports returns the telemetry datagram loss counter.
func (n *NetworkedLoop) LostReports() int { return n.ns.LostReports() }

// Close releases the sockets.
func (n *NetworkedLoop) Close() error { return n.ns.Close() }

// ExperimentIDs lists the registered paper artefacts and ablations.
func ExperimentIDs() []string { return experiments.IDs() }

// DescribeExperiment returns an experiment's one-line summary.
func DescribeExperiment(id string) string { return experiments.Describe(id) }

// ExperimentResult is a regenerated table/figure.
type ExperimentResult = experiments.Result

// ExperimentOptions selects which experiments to run, across which
// replication seeds, how wide the worker pool fans out, and whether each
// experiment's sweep rows shard into per-point jobs (ShardRows) so a
// single experiment can saturate the pool on its own. StoreDir persists
// every computed (experiment, seed) table into a durable results store;
// Resume reuses valid stored cells so a later run with a grown seed set
// recomputes only the missing seeds — output stays bit-identical to a
// fresh run either way.
type ExperimentOptions = experiments.Options

// ExperimentReport is the outcome of a RunExperiments call: per-seed
// tables in ID order, per-experiment wall time, row counts and shard
// speedup, and (for multi-seed runs) the mean±stddev aggregates.
type ExperimentReport = experiments.Report

// ReplicatedExperiment is one experiment aggregated across seeds.
type ReplicatedExperiment = experiments.ReplicatedResult

// RunExperiment regenerates one paper artefact by ID (e.g. "fig16",
// "tab1") with the given seed.
func RunExperiment(ctx context.Context, id string, seed int64) (*ExperimentResult, error) {
	return experiments.Run(ctx, id, seed)
}

// RunExperiments executes the selected experiments concurrently across
// the configured seeds and worker pool. The zero Options value runs the
// whole registry once with seed 1 at GOMAXPROCS workers; with ShardRows
// set, each experiment's sweep additionally splits into per-row jobs so
// even a single experiment saturates the pool. Results are bit-identical
// to a serial run regardless of concurrency or sharding.
func RunExperiments(ctx context.Context, opts ExperimentOptions) (*ExperimentReport, error) {
	return experiments.Execute(ctx, opts)
}

// ExperimentRunSpec describes one scheduler submission: experiment IDs
// (nil = all), replication seeds (nil = {1}), row sharding/batching,
// and whether to resume from the scheduler's results store.
type ExperimentRunSpec = experiments.RunSpec

// ExperimentRunHandle tracks one submitted run: Progress while it
// executes, Cancel to stop it (completed cells still persist), Done to
// wait, and Report for the finished tables.
type ExperimentRunHandle = experiments.RunHandle

// ExperimentProgress is a point-in-time snapshot of a submitted run.
type ExperimentProgress = experiments.Progress

// ExperimentScheduler is the long-lived execution core under
// RunExperiments and cmd/llama-serve: one bounded worker pool serving
// many concurrent submissions, each bit-identical to a serial run of
// the same spec regardless of what shares the pool.
type ExperimentScheduler = experiments.Scheduler

// NewExperimentScheduler starts a long-lived scheduler: workers bounds
// the shared pool (≤0 = GOMAXPROCS) and storeDir, when non-empty, opens
// (creating if needed) the durable results store the scheduler persists
// into and resumes from. Close the scheduler to release the pool:
// in-flight submissions stop, their completed cells persist, and each
// one's Report returns the scheduler-closed error instead of success.
func NewExperimentScheduler(workers int, storeDir string) (*ExperimentScheduler, error) {
	cfg := experiments.SchedulerConfig{Workers: workers}
	if storeDir != "" {
		st, err := store.Open(storeDir)
		if err != nil {
			return nil, fmt.Errorf("llama: %w", err)
		}
		cfg.Store = st
	}
	return experiments.NewScheduler(cfg), nil
}

// RangeExtension converts a link-budget gain in dB to the Friis range
// extension factor the paper quotes (15 dB → 5.6×).
func RangeExtension(gainDB float64) float64 { return units.FriisRangeExtension(gainDB) }
