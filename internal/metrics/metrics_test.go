package metrics

import (
	"math"
	"testing"

	"fbcache/internal/policy"
)

func TestZeroValueCollector(t *testing.T) {
	var c Collector
	if c.HitRatio() != 0 || c.ByteMissRatio() != 0 || c.BytesPerRequest() != 0 {
		t.Error("zero-value ratios not 0")
	}
	if c.Jobs() != 0 || c.Serviced() != 0 {
		t.Error("zero-value counts not 0")
	}
}

func TestRatios(t *testing.T) {
	var c Collector
	c.Record(policy.Result{Hit: true, BytesRequested: 100})
	c.Record(policy.Result{Hit: false, BytesRequested: 100, BytesLoaded: 60, FilesLoaded: 2, FilesEvicted: 1})
	c.Record(policy.Result{Hit: false, BytesRequested: 200, BytesLoaded: 40, FilesLoaded: 1})
	c.Record(policy.Result{Unserviceable: true, BytesRequested: 999})

	if c.Jobs() != 4 || c.Serviced() != 3 || c.Unserviceable() != 1 {
		t.Errorf("jobs=%d serviced=%d unserv=%d", c.Jobs(), c.Serviced(), c.Unserviceable())
	}
	if got := c.HitRatio(); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("HitRatio = %v", got)
	}
	if got := 1 - c.HitRatio(); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("MissRatio = %v", got)
	}
	if got := c.ByteMissRatio(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("ByteMissRatio = %v (100/400)", got)
	}
	if got := c.ByteHitRatio(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("ByteHitRatio = %v", got)
	}
	if got := c.BytesPerRequest(); math.Abs(got-100.0/3) > 1e-12 {
		t.Errorf("BytesPerRequest = %v", got)
	}
	if c.FilesLoaded() != 3 || c.FilesEvicted() != 1 {
		t.Errorf("files loaded=%d evicted=%d", c.FilesLoaded(), c.FilesEvicted())
	}
	if c.BytesLoaded() != 100 || c.BytesRequested() != 400 {
		t.Errorf("bytes loaded=%d requested=%d", c.BytesLoaded(), c.BytesRequested())
	}
	if c.String() == "" {
		t.Error("empty String")
	}
}

func TestUnserviceableExcludedFromByteRatios(t *testing.T) {
	var c Collector
	c.Record(policy.Result{Unserviceable: true, BytesRequested: 1000})
	if c.ByteMissRatio() != 0 || c.BytesRequested() != 0 {
		t.Error("unserviceable bytes leaked into ratios")
	}
}

func TestTimeSeries(t *testing.T) {
	c := Collector{Interval: 2}
	c.Record(policy.Result{Hit: true, BytesRequested: 10})
	c.Record(policy.Result{BytesRequested: 10, BytesLoaded: 10})
	c.Record(policy.Result{Hit: true, BytesRequested: 10})
	series := c.Series() // flushes the partial third window
	if len(series) != 2 {
		t.Fatalf("series len = %d, want 2", len(series))
	}
	if series[0].Jobs != 2 || math.Abs(series[0].HitRatio-0.5) > 1e-12 {
		t.Errorf("point 0 = %+v", series[0])
	}
	if math.Abs(series[0].ByteMissRatio-0.5) > 1e-12 {
		t.Errorf("point 0 byte miss = %v", series[0].ByteMissRatio)
	}
	if series[1].Jobs != 3 || series[1].HitRatio != 1 {
		t.Errorf("point 1 = %+v", series[1])
	}
	// Series must return a copy.
	series[0].Jobs = 999
	if got := c.Series(); got[0].Jobs == 999 {
		t.Error("Series aliases internal state")
	}
}

func TestNoSeriesWithoutInterval(t *testing.T) {
	var c Collector
	for i := 0; i < 10; i++ {
		c.Record(policy.Result{BytesRequested: 1, BytesLoaded: 1})
	}
	// Interval 0: only the final flush-on-demand point.
	if got := len(c.Series()); got != 1 {
		t.Errorf("series len = %d, want 1 (single flushed window)", got)
	}
}
