package devices

// Code only this package's tests call. No figure, command or service
// reaches it, so it is compiled into the tests alone.

import (
	"github.com/llama-surface/llama/internal/antenna"
	"github.com/llama-surface/llama/internal/units"
)

var // USRPN210 with a UBX-40 daughterboard: the lab transceiver (§4).
USRPN210 = Radio{
	Name: "USRP N210 + UBX-40", Antenna: antenna.DirectionalPatch,
	TxPowerDBm: 10, FreqHz: units.DefaultCarrierHz,
	RSSIStepDB: 0.01, RSSINoiseDB: 0.1,
}
