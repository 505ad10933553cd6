// Package channel simulates the polarization-aware radio channel the LLAMA
// evaluation runs over.
//
// A Scene composes endpoints (antennas with orientations), a link geometry,
// an optional metasurface (transmissive or reflective deployment, Fig. 14)
// and an environment (absorber-lined chamber or multipath-rich laboratory).
// The complex channel response is the coherent sum of Jones-weighted paths:
//
//	h = Σ_paths  a_p · ⟨ r̂ | M_p | t̂ ⟩
//
// where a_p carries spreading loss and propagation phase, M_p the
// polarization transformation of the path (identity for line of sight, the
// surface's Jones matrix for through/reflected paths, a random rotation
// for scatterers), and t̂/r̂ the endpoint polarization states.
package channel

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"github.com/llama-surface/llama/internal/antenna"
	"github.com/llama-surface/llama/internal/jones"
	"github.com/llama-surface/llama/internal/mat2"
	"github.com/llama-surface/llama/internal/metasurface"
	"github.com/llama-surface/llama/internal/units"
)

// Endpoint is a radio terminal: an antenna model plus its physical
// polarization orientation (radians from the global X axis).
type Endpoint struct {
	// Antenna is the element model.
	Antenna antenna.Model
	// Orientation is the element rotation ψ about the boresight axis.
	Orientation float64
}

// State returns the endpoint's polarization Jones state.
func (e Endpoint) State() jones.Vector {
	return e.Antenna.PolarizationState(e.Orientation)
}

// Geometry fixes the scene distances in meters. For transmissive scenes
// the surface sits between the endpoints (TxSurface + SurfaceRx is the
// through-path length, and also the Tx–Rx distance when the surface is
// removed). For reflective scenes TxRx is the direct distance and
// TxSurface/SurfaceRx the legs of the bounce path.
type Geometry struct {
	TxRx      float64
	TxSurface float64
	SurfaceRx float64
}

// Validate reports an error for non-physical geometries.
func (g Geometry) Validate() error {
	if g.TxRx <= 0 {
		return fmt.Errorf("channel: non-positive Tx–Rx distance %g", g.TxRx)
	}
	if g.TxSurface < 0 || g.SurfaceRx < 0 {
		return fmt.Errorf("channel: negative surface leg")
	}
	return nil
}

// Scatterer is one multipath reflector: an extra path with its own length,
// complex strength and polarization rotation.
type Scatterer struct {
	// ExtraPathM is the excess path length over the direct path, meters.
	ExtraPathM float64
	// GainLinear is the field amplitude relative to a free-space path of
	// the same length (reflection efficiency ≤ 1).
	GainLinear float64
	// PolRotation is the polarization rotation the bounce applies.
	PolRotation float64
	// Depol is the depolarizing leak (0 = preserves polarization).
	Depol float64
	// OffBoresightTx, OffBoresightRx are the angles the scattered path
	// leaves/arrives relative to the antenna boresights, so directional
	// antennas can suppress it.
	OffBoresightTx, OffBoresightRx float64
}

// Environment is the propagation surrounding: a set of scatterers.
type Environment struct {
	// Name labels the environment in reports.
	Name string
	// Scatterers is empty for the absorber-covered test area.
	Scatterers []Scatterer
}

// Absorber returns the paper's default controlled environment: the test
// area covered with absorbing material (§4), i.e. no multipath.
func Absorber() Environment { return Environment{Name: "absorber"} }

// Laboratory returns a multipath-rich indoor environment with n seeded
// random scatterers, reproducing §5.1.2's "rich multipath (laboratory)"
// setting. Scatterer strengths follow the usual indoor power-law decay.
func Laboratory(seed int64, n int) Environment {
	return scatterEnv("laboratory", seed, n, 0.15, 0.5)
}

// Home returns a mild indoor environment: a few weak reflections, the
// regime of the paper's Fig. 2(b) BLE benchmark where the direct path
// still dominates and the mismatch gap survives.
func Home(seed int64, n int) Environment {
	return scatterEnv("home", seed, n, 0.03, 0.09)
}

// scatterEnv draws n scatterers with field gains in [gainLo, gainLo+gainSpan).
func scatterEnv(name string, seed int64, n int, gainLo, gainSpan float64) Environment {
	if n < 0 {
		panic("channel: negative scatterer count")
	}
	rng := rand.New(rand.NewSource(seed))
	env := Environment{Name: fmt.Sprintf("%s (%d scatterers)", name, n)}
	for i := 0; i < n; i++ {
		env.Scatterers = append(env.Scatterers, Scatterer{
			ExtraPathM:     0.5 + rng.ExpFloat64()*2.5,
			GainLinear:     gainLo + gainSpan*rng.Float64(),
			PolRotation:    rng.Float64() * math.Pi,
			Depol:          0.1 + 0.4*rng.Float64(),
			OffBoresightTx: (rng.Float64() - 0.5) * math.Pi,
			OffBoresightRx: (rng.Float64() - 0.5) * math.Pi,
		})
	}
	return env
}

// sceneTerms caches the per-scene derived quantities that are fixed
// between mutations: the endpoint polarization states and boresight gain
// product (identical for every path), and the per-scatterer Jones
// matrices and pattern gain products. The cache is invalidated by key
// comparison on access — the endpoint and scatterer fields are small
// comparable structs, so detecting a mutation costs a few equality tests
// where recomputing costs trig and antenna-pattern evaluations — which
// keeps it correct even though Scene's fields are exported and mutable.
//
// Rebuilds always allocate fresh slices (never reuse backing arrays):
// Scenes are copied by value in several call sites (baseline comparisons,
// mobility timelines), and a rebuild that wrote into a shared backing
// array would silently corrupt the other copy's still-valid cache.
type sceneTerms struct {
	// epValid guards the endpoint terms; the key fields record the
	// endpoint configuration they were computed from.
	epValid            bool
	txAnt, rxAnt       antenna.Model
	txOrient, rxOrient float64
	tState, rState     jones.Vector
	gain0              float64 // √(G_tx(0)·G_rx(0))

	// scatKey is the scatterer list the terms below were built from,
	// against the scatAnt antennas (orientation does not enter them, so
	// they survive endpoint rotation).
	scatTxAnt, scatRxAnt antenna.Model
	scatValid            bool
	scatKey              []Scatterer
	scatJones            []mat2.Mat
	scatGain             []float64
}

// Scene is a complete, evaluable radio configuration.
//
// A Scene is not safe for concurrent use: evaluation maintains a lazily
// computed term cache (and the surface bias is mutable shared state), so
// concurrent goroutines must each own their own Scene.
type Scene struct {
	// FreqHz is the carrier frequency.
	FreqHz float64
	// Tx, Rx are the endpoints.
	Tx, Rx Endpoint
	// TxPowerW is the transmit power in watts.
	TxPowerW float64
	// Geom fixes the distances.
	Geom Geometry
	// Surface is the deployed metasurface; nil means no surface (the
	// baseline configuration).
	Surface *metasurface.Surface
	// Mode selects transmissive or reflective deployment.
	Mode metasurface.Mode
	// Env is the propagation environment.
	Env Environment
	// NoiseBandwidthHz is the receiver noise bandwidth (1 MHz for the
	// paper's USRP sampling).
	NoiseBandwidthHz float64
	// NoiseFigureDB is the receiver noise figure.
	NoiseFigureDB float64
	// InterferenceFloorDBm models the SDR's effective in-band
	// interference + estimator floor; it adds to thermal noise. Set to
	// -Inf (or just very low) to disable.
	InterferenceFloorDBm float64
	// MeasurementSaturation is the multiplicative error fraction of the
	// receiver's SNR estimator: the measured SNR saturates at
	// 1/MeasurementSaturation however strong the signal. The paper's
	// capacity plots (Figs. 18/19/22) top out near 0.6 bit/s/Hz, which
	// corresponds to a saturation fraction ≈ 1.5–2.
	MeasurementSaturation float64
	// TxReflection is the Tx antenna structural reflection coefficient
	// used by the surface↔antenna standing-wave term.
	TxReflection float64

	// terms is the lazily computed, mutation-invalidated cache of
	// endpoint and scatterer derived quantities.
	terms sceneTerms
}

// endpointTerms returns the cached endpoint polarization states and the
// boresight gain product, recomputing them when an endpoint field has
// changed since the last evaluation.
func (s *Scene) endpointTerms() (t, r jones.Vector, gain0 float64) {
	m := &s.terms
	if !m.epValid ||
		m.txAnt != s.Tx.Antenna || m.txOrient != s.Tx.Orientation ||
		m.rxAnt != s.Rx.Antenna || m.rxOrient != s.Rx.Orientation {
		m.txAnt, m.txOrient = s.Tx.Antenna, s.Tx.Orientation
		m.rxAnt, m.rxOrient = s.Rx.Antenna, s.Rx.Orientation
		m.tState = s.Tx.State()
		m.rState = s.Rx.State()
		m.gain0 = math.Sqrt(s.Tx.Antenna.Gain(0) * s.Rx.Antenna.Gain(0))
		m.epValid = true
	}
	return m.tState, m.rState, m.gain0
}

// scattererTerms returns the cached per-scatterer polarization matrices
// and pattern gain products, rebuilding them when the environment's
// scatterer list or the endpoint antennas have changed (orientation
// doesn't enter, so a rotating endpoint keeps its scatterer terms).
func (s *Scene) scattererTerms() (jm []mat2.Mat, gain []float64) {
	m := &s.terms
	sc := s.Env.Scatterers
	same := m.scatValid &&
		m.scatTxAnt == s.Tx.Antenna && m.scatRxAnt == s.Rx.Antenna &&
		len(m.scatKey) == len(sc)
	for i := 0; same && i < len(sc); i++ {
		same = m.scatKey[i] == sc[i]
	}
	if !same {
		m.scatTxAnt, m.scatRxAnt = s.Tx.Antenna, s.Rx.Antenna
		m.scatKey = append([]Scatterer(nil), sc...)
		m.scatJones = make([]mat2.Mat, 0, len(sc))
		m.scatGain = make([]float64, 0, len(sc))
		for _, x := range sc {
			m.scatJones = append(m.scatJones, scattererJones(x))
			m.scatGain = append(m.scatGain,
				math.Sqrt(s.Tx.Antenna.Gain(x.OffBoresightTx)*s.Rx.Antenna.Gain(x.OffBoresightRx)))
		}
		m.scatValid = true
	}
	return m.scatJones, m.scatGain
}

// Validate reports an error when the scene is not evaluable.
func (s *Scene) Validate() error {
	if s.FreqHz <= 0 {
		return fmt.Errorf("channel: non-positive frequency")
	}
	if s.TxPowerW <= 0 {
		return fmt.Errorf("channel: non-positive transmit power")
	}
	if err := s.Geom.Validate(); err != nil {
		return err
	}
	if err := s.Tx.Antenna.Validate(); err != nil {
		return err
	}
	if err := s.Rx.Antenna.Validate(); err != nil {
		return err
	}
	if s.NoiseBandwidthHz <= 0 {
		return fmt.Errorf("channel: non-positive noise bandwidth")
	}
	if s.Surface != nil && (s.Geom.TxSurface <= 0 || s.Geom.SurfaceRx <= 0) {
		return fmt.Errorf("channel: surface present but surface legs unset")
	}
	if s.MeasurementSaturation < 0 {
		return fmt.Errorf("channel: negative measurement saturation")
	}
	return nil
}

// pathAmplitude returns the complex field transfer of a free-space leg of
// length d: (λ/4πd)·e^{−jkd}. Antenna gains are applied separately.
func (s *Scene) pathAmplitude(d float64) complex128 {
	lambda := units.Wavelength(s.FreqHz)
	mag := lambda / (4 * math.Pi * d)
	return cmplx.Rect(mag, -units.WaveNumber(s.FreqHz)*d)
}

// FieldTransfer returns the complex scalar channel h between the Tx and
// Rx ports, including antenna gains, polarization projection, the surface
// (when present) and the environment's multipath.
func (s *Scene) FieldTransfer() complex128 {
	tState, rState, gain0 := s.endpointTerms()

	var h complex128
	switch {
	case s.Surface == nil:
		// Direct line of sight only.
		h += s.losTerm(tState, rState, gain0, s.directDistance())
	case s.Mode == metasurface.Transmissive:
		h += s.throughSurfaceTerm(tState, rState, gain0)
	default: // Reflective
		h += s.losTerm(tState, rState, gain0, s.Geom.TxRx)
		h += s.reflectedTerm(tState, rState, gain0)
	}
	h += s.multipathTerms(tState, rState)
	return h
}

// directDistance returns the Tx–Rx separation used for the no-surface
// baseline: TxRx when set for reflective scenes, otherwise the through
// geometry's total.
func (s *Scene) directDistance() float64 {
	if s.Geom.TxSurface > 0 && s.Geom.SurfaceRx > 0 && s.Mode == metasurface.Transmissive {
		return s.Geom.TxSurface + s.Geom.SurfaceRx
	}
	return s.Geom.TxRx
}

// losTerm is a free-space path with no polarization transformation;
// gain0 is the cached boresight gain product from endpointTerms.
func (s *Scene) losTerm(t, r jones.Vector, gain0, d float64) complex128 {
	amp := s.pathAmplitude(d)
	return amp * complex(gain0, 0) * r.Dot(t)
}

// throughSurfaceTerm is the transmissive path: Tx → surface → Rx with the
// surface's Jones matrix applied, plus the surface↔Tx standing-wave
// correction that shifts the optimal bias with distance (Fig. 15's
// distance-dependent heatmaps).
func (s *Scene) throughSurfaceTerm(t, r jones.Vector, gain0 float64) complex128 {
	d1, d2 := s.Geom.TxSurface, s.Geom.SurfaceRx
	m := s.Surface.JonesTransmissive(s.FreqHz)
	amp := s.pathAmplitude(d1 + d2)
	direct := amp * complex(gain0, 0) * r.Dot(m.MulVec(t))
	// Standing wave: the surface's front face reflects part of the
	// incident wave back to the Tx antenna, which re-reflects it toward
	// the surface with an extra 2·d1 of travel. The product of the two
	// reflection coefficients modulates the through field.
	gamma := s.Surface.FrontReflection(s.FreqHz) * complex(s.TxReflection, 0)
	sw := gamma * cmplx.Rect(1, -2*units.WaveNumber(s.FreqHz)*d1)
	return direct * (1 + sw)
}

// reflectedTerm is the surface bounce path of the reflective deployment:
// by image theory over a large flat reflector the spreading distance is
// the sum of both legs.
func (s *Scene) reflectedTerm(t, r jones.Vector, gain0 float64) complex128 {
	d := s.Geom.TxSurface + s.Geom.SurfaceRx
	m := s.Surface.JonesReflective(s.FreqHz)
	amp := s.pathAmplitude(d)
	return amp * complex(gain0, 0) * r.Dot(m.MulVec(t))
}

// multipathTerms sums the environment's scattered paths. Directional
// antennas suppress off-boresight bounces through their pattern; the
// per-scatterer polarization matrices and gains come from the scene's
// term cache.
func (s *Scene) multipathTerms(t, r jones.Vector) complex128 {
	var h complex128
	base := s.directDistance()
	jm, gain := s.scattererTerms()
	for i, sc := range s.Env.Scatterers {
		d := base + sc.ExtraPathM
		amp := s.pathAmplitude(d) * complex(sc.GainLinear, 0)
		h += amp * complex(gain[i], 0) * r.Dot(jm[i].MulVec(t))
	}
	return h
}

// scattererJones builds the polarization transformation of a bounce:
// rotation plus a depolarizing leak.
func scattererJones(sc Scatterer) mat2.Mat {
	rot := mat2.Rotation(sc.PolRotation)
	depol := mat2.Mat{
		A: complex(1-sc.Depol/2, 0), B: complex(0, sc.Depol/2),
		C: complex(0, sc.Depol/2), D: complex(1-sc.Depol/2, 0),
	}
	return rot.Mul(depol)
}

// ReceivedPowerW returns the noiseless received signal power in watts.
func (s *Scene) ReceivedPowerW() float64 {
	h := s.FieldTransfer()
	mag := cmplx.Abs(h)
	return s.TxPowerW * mag * mag
}

// ReceivedPowerDBm returns ReceivedPowerW in dBm.
func (s *Scene) ReceivedPowerDBm() float64 {
	return units.WattsToDBm(s.ReceivedPowerW())
}

// NoisePowerW returns the effective receiver noise power: thermal noise
// over the noise bandwidth, degraded by the noise figure, plus the
// interference floor when configured.
func (s *Scene) NoisePowerW() float64 {
	n := units.ThermalNoiseWatts(s.NoiseBandwidthHz) * units.DBToLinear(s.NoiseFigureDB)
	if !math.IsInf(s.InterferenceFloorDBm, -1) && s.InterferenceFloorDBm != 0 {
		n += units.DBmToWatts(s.InterferenceFloorDBm)
	}
	return n
}

// SNR returns the true (estimator-independent) linear SNR.
func (s *Scene) SNR() float64 { return s.ReceivedPowerW() / s.NoisePowerW() }

// MeasuredSNR returns the SNR the receiver's estimator reports: the true
// ratio compressed by the multiplicative measurement floor, saturating at
// 1/MeasurementSaturation for strong signals. With saturation 0 this is
// the true SNR.
func (s *Scene) MeasuredSNR() float64 {
	pr := s.ReceivedPowerW()
	return pr / (s.NoisePowerW() + s.MeasurementSaturation*pr)
}

// SpectralEfficiency returns log2(1+MeasuredSNR) in bit/s/Hz — the
// "capacity" metric of Figs. 18/19/22.
func (s *Scene) SpectralEfficiency() float64 {
	return units.SpectralEfficiency(s.MeasuredSNR())
}

// DefaultScene returns a ready-to-evaluate controlled-experiment scene:
// USRP endpoints with directional patches in a mismatched (orthogonal)
// configuration behind absorber, 10 mW transmit power at the paper's
// default carrier, with the surface legs split evenly.
func DefaultScene(surface *metasurface.Surface, txRx float64) *Scene {
	return &Scene{
		FreqHz:                units.DefaultCarrierHz,
		Tx:                    Endpoint{Antenna: antenna.DirectionalPatch, Orientation: math.Pi / 2},
		Rx:                    Endpoint{Antenna: antenna.DirectionalPatch, Orientation: 0},
		TxPowerW:              10e-3,
		Geom:                  Geometry{TxRx: txRx, TxSurface: txRx / 2, SurfaceRx: txRx / 2},
		Surface:               surface,
		Mode:                  metasurface.Transmissive,
		Env:                   Absorber(),
		NoiseBandwidthHz:      1e6,
		NoiseFigureDB:         6,
		InterferenceFloorDBm:  -60,
		MeasurementSaturation: 1.7,
		TxReflection:          0.35,
	}
}
