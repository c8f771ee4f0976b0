// Package mss models the Mass Storage Systems behind an SRM (§1, §2): the
// tape/disk archives files are fetched from on a cache miss. A System has a
// fixed number of transfer channels (tape drives / movers); each fetch pays
// a per-transfer latency (mount + seek) plus size/bandwidth, and queues for
// the earliest available channel.
//
// Simulation time is float64 seconds; the model is used by the
// discrete-event simulator in internal/simulate and the cost model in
// internal/grid.
package mss

import (
	"fmt"

	"fbcache/internal/bundle"
)

// Config describes one mass storage system.
type Config struct {
	// Name labels the system in output ("hpss-local", "remote-tape", ...).
	Name string
	// LatencySec is the fixed per-transfer cost (mount, robot, seek).
	LatencySec float64
	// BandwidthBps is the per-channel transfer rate in bytes/second.
	BandwidthBps float64
	// Channels is the number of concurrent transfers (drives). Must be >= 1.
	Channels int
}

// DefaultConfig models a modest HPSS-class archive: 10s mount latency,
// 50 MB/s per channel, 4 channels.
func DefaultConfig() Config {
	return Config{Name: "mss", LatencySec: 10, BandwidthBps: 50e6, Channels: 4}
}

// Validate reports the first problem with the config.
func (c Config) Validate() error {
	switch {
	case c.LatencySec < 0:
		return fmt.Errorf("mss %q: negative latency", c.Name)
	case c.BandwidthBps <= 0:
		return fmt.Errorf("mss %q: bandwidth must be positive", c.Name)
	case c.Channels < 1:
		return fmt.Errorf("mss %q: need at least one channel", c.Name)
	}
	return nil
}

// TransferSeconds reports the service time (excluding channel queueing) of
// one transfer of the given size.
func (c Config) TransferSeconds(size bundle.Size) float64 {
	return c.LatencySec + float64(size)/c.BandwidthBps
}

// Availability lets a fault injector gate and slow a System's transfers:
// NextUp defers transfer starts out of outage windows (drives offline,
// robot down) and Slowdown scales transfer durations during bandwidth
// brownouts. Nil means always up at full speed. Implementations must be
// pure functions of simulation time — never the wall clock — so runs stay
// reproducible.
type Availability interface {
	// NextUp returns the earliest time >= at the system may start a
	// transfer.
	NextUp(at float64) float64
	// Slowdown returns the duration multiplier (>= 1) for a transfer
	// starting at time at.
	Slowdown(at float64) float64
}

// System is a stateful MSS instance inside a simulation: it tracks when each
// channel becomes free so concurrent fetches queue realistically.
type System struct {
	cfg   Config
	free  []float64 // per-channel next-available time
	avail Availability

	transfers int64
	bytes     bundle.Size
	busy      float64 // total channel-busy seconds
}

// NewSystem builds a System from a validated config.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &System{cfg: cfg, free: make([]float64, cfg.Channels)}, nil
}

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// SetAvailability attaches a fault schedule (see Availability). Call before
// the first Fetch; a nil value restores the always-up model.
func (s *System) SetAvailability(a Availability) { s.avail = a }

// Fetch schedules one transfer requested at time now and returns its finish
// time. The transfer starts when the earliest channel frees (or
// immediately), deferred past any outage window and stretched by any
// brownout in effect at its start, and occupies that channel for
// LatencySec + size/bandwidth (times the brownout factor). An outage or
// brownout beginning mid-transfer does not interrupt it — the fault model
// gates starts, not completions.
func (s *System) Fetch(now float64, size bundle.Size) (finish float64) {
	if size < 0 {
		panic(fmt.Sprintf("mss: negative transfer size %d", size))
	}
	// Earliest-available channel.
	ch := 0
	for i := 1; i < len(s.free); i++ {
		if s.free[i] < s.free[ch] {
			ch = i
		}
	}
	start := now
	if s.free[ch] > start {
		start = s.free[ch]
	}
	dur := s.cfg.TransferSeconds(size)
	if s.avail != nil {
		start = s.avail.NextUp(start)
		dur *= s.avail.Slowdown(start)
	}
	finish = start + dur
	s.free[ch] = finish

	s.transfers++
	s.bytes += size
	s.busy += dur
	return finish
}

// Stats reports cumulative transfer counts, bytes moved and channel-busy
// seconds.
func (s *System) Stats() (transfers int64, bytes bundle.Size, busySeconds float64) {
	return s.transfers, s.bytes, s.busy
}

// Utilization reports mean channel utilization over [0, horizon].
func (s *System) Utilization(horizon float64) float64 {
	if horizon <= 0 {
		return 0
	}
	return s.busy / (horizon * float64(s.cfg.Channels))
}
