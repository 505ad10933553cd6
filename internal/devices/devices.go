// Package devices models the commodity IoT endpoints the paper evaluates
// with (Figs. 2 and 20): a Wi-Fi AP talking to an ESP8266-based Arduino,
// a BLE wearable talking to a Raspberry Pi 3, and the USRP N210 lab
// transceiver of the controlled experiments.
//
// Each device pairs an antenna model with protocol-level behaviour that
// shapes the RSSI distributions: transmit power, RSSI register
// quantization, report rate, and orientation jitter (a wearable on a
// moving wrist does not hold a fixed polarization).
package devices

import (
	"fmt"
	"math/rand"

	"github.com/llama-surface/llama/internal/antenna"
	"github.com/llama-surface/llama/internal/channel"
	"github.com/llama-surface/llama/internal/units"
)

// Radio describes one endpoint device.
type Radio struct {
	// Name identifies the device.
	Name string
	// Antenna is the element model.
	Antenna antenna.Model
	// TxPowerDBm is the transmit power.
	TxPowerDBm float64
	// FreqHz is the operating carrier.
	FreqHz float64
	// RSSIStepDB is the RSSI register quantization (1 dB for Wi-Fi
	// chipsets, coarser for BLE stacks).
	RSSIStepDB float64
	// RSSINoiseDB is the per-report measurement jitter (standard
	// deviation, dB) of the device's RSSI estimator.
	RSSINoiseDB float64
	// OrientationJitterRad is the random wobble of the device's antenna
	// orientation between reports (wearables move; wall plugs do not).
	OrientationJitterRad float64
}

// Prefab devices matching the paper's hardware list.
var (
	// NetgearAP is the 802.11g access point [2].
	NetgearAP = Radio{
		Name: "Netgear N300 AP", Antenna: antenna.HalfWaveDipole,
		TxPowerDBm: 16, FreqHz: 2.442e9,
		RSSIStepDB: 1, RSSINoiseDB: 1.2,
	}
	// ESP8266 is the cheap Arduino Wi-Fi board [11].
	ESP8266 = Radio{
		Name: "ESP8266 Arduino", Antenna: antenna.ESP8266PCB,
		TxPowerDBm: 14, FreqHz: 2.442e9,
		RSSIStepDB: 1, RSSINoiseDB: 1.5,
	}
	// MetaMotionR is the BLE wearable sensor [23].
	MetaMotionR = Radio{
		Name: "MetaMotionR wearable", Antenna: antenna.WearableBLE,
		TxPowerDBm: 0, FreqHz: 2.426e9,
		RSSIStepDB: 2, RSSINoiseDB: 1.8,
		OrientationJitterRad: 0.15,
	}
	// RaspberryPi3 is the BLE receiver [29].
	RaspberryPi3 = Radio{
		Name: "Raspberry Pi 3", Antenna: antenna.HalfWaveDipole,
		TxPowerDBm: 8, FreqHz: 2.426e9,
		RSSIStepDB: 1, RSSINoiseDB: 1.0,
	}
)

// Validate reports an error for unusable radios.
func (r Radio) Validate() error {
	if err := r.Antenna.Validate(); err != nil {
		return fmt.Errorf("devices: %s: %w", r.Name, err)
	}
	switch {
	case r.FreqHz <= 0:
		return fmt.Errorf("devices: %s: non-positive frequency", r.Name)
	case r.RSSIStepDB < 0 || r.RSSINoiseDB < 0:
		return fmt.Errorf("devices: %s: negative RSSI error terms", r.Name)
	case r.OrientationJitterRad < 0:
		return fmt.Errorf("devices: %s: negative orientation jitter", r.Name)
	}
	return nil
}

// String implements fmt.Stringer.
func (r Radio) String() string {
	return fmt.Sprintf("%s (%.0f dBm @ %.3f GHz, %s)", r.Name, r.TxPowerDBm, r.FreqHz/1e9, r.Antenna.Name)
}

// LinkConfig describes a device-to-device measurement campaign.
type LinkConfig struct {
	// Tx, Rx are the endpoints.
	Tx, Rx Radio
	// TxOrientation, RxOrientation are the nominal element angles.
	TxOrientation, RxOrientation float64
	// Scene is the underlying channel configuration; Tx power, carrier
	// and antennas are overridden from the radios.
	Scene *channel.Scene
}

// NewLink builds a LinkConfig over a base scene.
func NewLink(tx, rx Radio, txOrient, rxOrient float64, scene *channel.Scene) (*LinkConfig, error) {
	if err := tx.Validate(); err != nil {
		return nil, err
	}
	if err := rx.Validate(); err != nil {
		return nil, err
	}
	if scene == nil {
		return nil, fmt.Errorf("devices: nil scene")
	}
	return &LinkConfig{Tx: tx, Rx: rx, TxOrientation: txOrient, RxOrientation: rxOrient, Scene: scene}, nil
}

// SampleRSSI simulates n RSSI reports over the link: each report re-rolls
// orientation jitter, evaluates the physical channel, then applies the
// device's estimator noise and register quantization. The result is the
// raw material of Fig. 2 / Fig. 20's PDFs.
func (l *LinkConfig) SampleRSSI(n int, rng *rand.Rand) []float64 {
	if n <= 0 {
		panic("devices: non-positive sample count")
	}
	if rng == nil {
		panic("devices: nil RNG")
	}
	sc := *l.Scene // shallow working copy; Surface pointer shared
	sc.FreqHz = l.Tx.FreqHz
	sc.TxPowerW = units.DBmToWatts(l.Tx.TxPowerDBm)
	sc.Tx.Antenna = l.Tx.Antenna
	sc.Rx.Antenna = l.Rx.Antenna
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		sc.Tx.Orientation = l.TxOrientation + l.Tx.OrientationJitterRad*rng.NormFloat64()
		sc.Rx.Orientation = l.RxOrientation + l.Rx.OrientationJitterRad*rng.NormFloat64()
		rssi := sc.ReceivedPowerDBm()
		rssi += l.Rx.RSSINoiseDB * rng.NormFloat64()
		if l.Rx.RSSIStepDB > 0 {
			steps := rssi / l.Rx.RSSIStepDB
			rssi = l.Rx.RSSIStepDB * float64(int(steps+copysign05(steps)))
		}
		out[i] = rssi
	}
	return out
}

// copysign05 returns ±0.5 matching the sign of x, for round-half-away
// quantization without importing math for one call site.
func copysign05(x float64) float64 {
	if x < 0 {
		return -0.5
	}
	return 0.5
}
