package llama

import (
	"context"
	"math"
	"testing"
)

func TestLoopTracker(t *testing.T) {
	loop, err := NewLoop(LoopConfig{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := loop.Track(context.Background(), DefaultTrackerConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	stats := tr.Stats()
	if stats.Resweeps < 1 {
		t.Error("initial sweep not counted")
	}
	if stats.Holds != 3 {
		t.Errorf("static scene should hold every step: %+v", stats)
	}
	if loop.GainDB() < 5 {
		t.Errorf("tracked gain = %.1f dB", loop.GainDB())
	}
}

func TestLoopTrackRejectsNegativeSteps(t *testing.T) {
	loop, err := NewLoop(LoopConfig{Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loop.Track(context.Background(), DefaultTrackerConfig(), -1); err == nil {
		t.Error("negative steps accepted")
	}
}

func TestManufacturePanel(t *testing.T) {
	lat, err := ManufacturePanel(OptimizedFR4(DefaultCarrierHz), DefaultLatticeSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := lat.Yield(DefaultCarrierHz, 2, 15)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RotationDeg < 30 {
		t.Errorf("manufactured panel rotation = %v°", rep.RotationDeg)
	}
	bad := OptimizedFR4(DefaultCarrierHz)
	bad.BFSLayers = 0
	if _, err := ManufacturePanel(bad, DefaultLatticeSpec(), 1); err == nil {
		t.Error("bad design accepted")
	}
}

func TestPHYRateFacade(t *testing.T) {
	rates := WiFi11gRates()
	if len(rates) != 6 {
		t.Fatalf("rate table size = %d", len(rates))
	}
	// The returned slice is a copy: mutating it must not corrupt the
	// package table.
	rates[0].BitRate = 1
	if fresh := WiFi11gRates(); fresh[0].BitRate == 1 {
		t.Error("rate table aliased to caller")
	}
	if BLERate().Name == "" {
		t.Error("BLE rate empty")
	}
	tp := AdaptedThroughput(WiFi11gRates(), math.Pow(10, 30.0/10), 1500)
	if tp < 40e6 {
		t.Errorf("clean-channel adapted throughput = %v", tp)
	}
}

func TestCompareSchedulesFacade(t *testing.T) {
	surf := NewSurface(OptimizedFR4(DefaultCarrierHz))
	scA := MismatchedLink(surf, 0.48)
	scA.TxPowerW = 2e-5
	scB := MismatchedLink(surf, 0.60)
	scB.Rx.Orientation = 0.9
	scB.TxPowerW = 2e-5
	links := []ScheduledLink{
		{Name: "A", Throughput: func(vx, vy float64) float64 {
			surf.SetBias(vx, vy)
			return AdaptedThroughput(WiFi11gRates(), scA.SNR(), 1500)
		}},
		{Name: "B", Throughput: func(vx, vy float64) float64 {
			surf.SetBias(vx, vy)
			return AdaptedThroughput(WiFi11gRates(), scB.SNR(), 1500)
		}},
	}
	ranked, err := CompareSchedules(links)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 3 {
		t.Fatalf("policies = %d", len(ranked))
	}
	for _, a := range ranked {
		if a.Min() <= 0 {
			t.Errorf("%s starves a link", a.Policy)
		}
	}
}
