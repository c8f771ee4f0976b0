package mss

import (
	"math"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Name: "a", LatencySec: -1, BandwidthBps: 1, Channels: 1},
		{Name: "b", LatencySec: 0, BandwidthBps: 0, Channels: 1},
		{Name: "c", LatencySec: 0, BandwidthBps: 1, Channels: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%q: accepted", c.Name)
		}
		if _, err := NewSystem(c); err == nil {
			t.Errorf("%q: NewSystem accepted", c.Name)
		}
	}
}

func TestTransferSeconds(t *testing.T) {
	c := Config{LatencySec: 2, BandwidthBps: 100, Channels: 1}
	if got := c.TransferSeconds(500); math.Abs(got-7) > 1e-12 {
		t.Errorf("TransferSeconds = %v, want 7 (2 + 500/100)", got)
	}
	if got := c.TransferSeconds(0); got != 2 {
		t.Errorf("zero-size transfer = %v, want latency only", got)
	}
}

func TestFetchSingleChannelQueues(t *testing.T) {
	s, err := NewSystem(Config{Name: "one", LatencySec: 1, BandwidthBps: 100, Channels: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Two 100-byte fetches at t=0: each takes 2s; the second queues.
	f1 := s.Fetch(0, 100)
	f2 := s.Fetch(0, 100)
	if f1 != 2 || f2 != 4 {
		t.Errorf("finishes = %v, %v; want 2, 4", f1, f2)
	}
	// A fetch after the backlog clears starts immediately.
	f3 := s.Fetch(10, 100)
	if f3 != 12 {
		t.Errorf("f3 = %v, want 12", f3)
	}
}

func TestFetchMultiChannelParallel(t *testing.T) {
	s, _ := NewSystem(Config{Name: "two", LatencySec: 1, BandwidthBps: 100, Channels: 2})
	f1 := s.Fetch(0, 100)
	f2 := s.Fetch(0, 100)
	f3 := s.Fetch(0, 100)
	if f1 != 2 || f2 != 2 {
		t.Errorf("parallel finishes = %v, %v; want 2, 2", f1, f2)
	}
	if f3 != 4 {
		t.Errorf("third fetch = %v, want 4 (queued)", f3)
	}
}

func TestStatsAndUtilization(t *testing.T) {
	s, _ := NewSystem(Config{Name: "u", LatencySec: 0, BandwidthBps: 100, Channels: 2})
	s.Fetch(0, 100) // 1s busy
	s.Fetch(0, 300) // 3s busy
	n, bytes, busy := s.Stats()
	if n != 2 || bytes != 400 || busy != 4 {
		t.Errorf("stats = %d %d %v", n, bytes, busy)
	}
	// Over a 4-second horizon with 2 channels: 4/(4*2) = 0.5.
	if got := s.Utilization(4); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Utilization = %v", got)
	}
	if got := s.Utilization(0); got != 0 {
		t.Errorf("Utilization(0) = %v", got)
	}
}

// windowAvail is a test Availability: down during [downFrom, downTo), and a
// constant brownout factor afterwards.
type windowAvail struct {
	downFrom, downTo float64
	factor           float64
}

func (a windowAvail) NextUp(at float64) float64 {
	if at >= a.downFrom && at < a.downTo {
		return a.downTo
	}
	return at
}

func (a windowAvail) Slowdown(at float64) float64 {
	if a.factor > 0 {
		return a.factor
	}
	return 1
}

func TestFetchDefersPastOutage(t *testing.T) {
	s, _ := NewSystem(Config{Name: "o", LatencySec: 1, BandwidthBps: 100, Channels: 1})
	s.SetAvailability(windowAvail{downFrom: 0, downTo: 10})
	// Requested at t=2 inside the outage: starts at 10, finishes at 12.
	if got := s.Fetch(2, 100); got != 12 {
		t.Errorf("outage fetch = %v, want 12", got)
	}
	// The channel is now busy until 12; next transfer queues normally.
	if got := s.Fetch(2, 100); got != 14 {
		t.Errorf("queued fetch = %v, want 14", got)
	}
	// Clearing the availability restores the plain model.
	s.SetAvailability(nil)
	if got := s.Fetch(20, 100); got != 22 {
		t.Errorf("post-clear fetch = %v, want 22", got)
	}
}

func TestFetchBrownoutStretchesDuration(t *testing.T) {
	s, _ := NewSystem(Config{Name: "b", LatencySec: 1, BandwidthBps: 100, Channels: 1})
	s.SetAvailability(windowAvail{factor: 3})
	// 2s service time tripled: 6s.
	if got := s.Fetch(0, 100); got != 6 {
		t.Errorf("brownout fetch = %v, want 6", got)
	}
	_, _, busy := s.Stats()
	if busy != 6 {
		t.Errorf("busy accounting = %v, want the stretched duration", busy)
	}
}

func TestFetchNegativeSizePanics(t *testing.T) {
	s, _ := NewSystem(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.Fetch(0, -1)
}
