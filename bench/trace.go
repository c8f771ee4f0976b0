package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"fbcache/internal/bundle"
	"fbcache/internal/cache"
	"fbcache/internal/obs"
	"fbcache/internal/obs/span"
	"fbcache/internal/policy"
)

// quantiles sorts vals in place and returns the requested quantiles with
// linear interpolation between order statistics (stats.Quantile's rule).
// An empty input yields zeros: a layer the workload never ran reads 0.
func quantiles[T time.Duration | float64](vals []T, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(vals) == 0 {
		return out
	}
	slices.Sort(vals)
	for i, q := range qs {
		pos := q * float64(len(vals)-1)
		j := int(pos)
		if j >= len(vals)-1 {
			out[i] = float64(vals[len(vals)-1])
			continue
		}
		frac := pos - float64(j)
		out[i] = float64(vals[j])*(1-frac) + float64(vals[j+1])*frac
	}
	return out
}

func sum(vals []float64) float64 {
	t := 0.0
	for _, v := range vals {
		t += v
	}
	return t
}

// timedPolicy is the traced run's policy decorator: it times every Admit
// and counts what the admission did, retaining nothing from the Result.
type timedPolicy struct {
	inner policy.Policy

	mu        sync.Mutex
	active    bool      //fbvet:guardedby mu — admissions are recorded only while set
	hitUs     []float64 //fbvet:guardedby mu
	missUs    []float64 //fbvet:guardedby mu
	loaded    int64     //fbvet:guardedby mu
	evicted   int64     //fbvet:guardedby mu
	requested int64     //fbvet:guardedby mu — bytes
	missBytes int64     //fbvet:guardedby mu
}

func (t *timedPolicy) wrap(p policy.Policy) policy.Policy {
	t.inner = p
	return t
}

func (t *timedPolicy) Name() string        { return t.inner.Name() }
func (t *timedPolicy) Cache() *cache.Cache { return t.inner.Cache() }

func (t *timedPolicy) Admit(b bundle.Bundle) policy.Result {
	t0 := time.Now()
	res := t.inner.Admit(b)
	us := float64(time.Since(t0)) / 1e3
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.active {
		return res
	}
	if res.Hit {
		t.hitUs = append(t.hitUs, us)
	} else {
		t.missUs = append(t.missUs, us)
	}
	t.loaded += int64(res.FilesLoaded)
	t.evicted += int64(res.FilesEvicted)
	if !res.Unserviceable {
		t.requested += int64(res.BytesRequested)
		t.missBytes += int64(res.BytesLoaded)
	}
	return res
}

// record turns recording on or off (off during set-up and warm-up).
func (t *timedPolicy) record(on bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.active = on
}

// metrics reports the policy layer over wall seconds of traffic.
func (t *timedPolicy) metrics(wall float64, into map[string]metric) (busy float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	all := append(append([]float64(nil), t.hitUs...), t.missUs...)
	jobs := float64(max(len(all), 1))
	busy = sum(all) / 1e6
	q := quantiles(all, 0.5, 0.99)
	into["policy.admit_us_p50"] = single("us", q[0])
	into["policy.admit_us_p99"] = single("us", q[1])
	into["policy.admit_hit_us_p50"] = single("us", quantiles(t.hitUs, 0.5)[0])
	into["policy.admit_miss_us_p50"] = single("us", quantiles(t.missUs, 0.5)[0])
	into["policy.admit_busy_share"] = single("share", busy/wall)
	into["policy.files_loaded_per_job"] = single("files/job", float64(t.loaded)/jobs)
	into["policy.files_evicted_per_job"] = single("files/job", float64(t.evicted)/jobs)
	into["policy.hit_ratio"] = single("ratio", float64(len(t.hitUs))/jobs)
	into["policy.byte_miss_ratio"] = single("ratio", float64(t.missBytes)/float64(max(t.requested, 1)))
	return busy
}

// spanSink adapts a function to the obs.Tracer the flight recorder dumps
// to; only span events reach it.
type spanSink struct {
	obs.NopTracer
	fn func(obs.SpanEvent)
}

func (s spanSink) Span(e obs.SpanEvent) { s.fn(e) }

// keptPerWindow is about how many request trees a traced window keeps:
// every span of every n-th request (by server request ID), n chosen from
// the stack's warm-up rate, so kept trees are whole and the written trace
// stays the same size however fast the stack runs.
const keptPerWindow = 1000

// serverSpanOffset separates the server recorder's span IDs from the
// client recorder's in the written JSONL; both count from 1.
const serverSpanOffset = 1 << 40

// spanCollector receives every span of every request from the server and
// client flight recorders (both run with a 1ns slow threshold, so every
// request is dumped, children first and root last) and derives the wire
// and server legs.
type spanCollector struct {
	mu        sync.Mutex
	active    bool               //fbvet:guardedby mu — spans are collected only while set
	window    uint64             //fbvet:guardedby mu — stack ordinal, separating kept requests of different stacks
	every     uint64             //fbvet:guardedby mu — keep every span of every every-th request
	childSec  map[uint64]float64 //fbvet:guardedby mu — per request: summed wait+admit+store
	stageSec  map[uint64]float64 //fbvet:guardedby mu — per request: server stage root, until the client joins it
	stageSelf []float64          //fbvet:guardedby mu — µs
	release   []float64          //fbvet:guardedby mu
	wait      []float64          //fbvet:guardedby mu
	store     []float64          //fbvet:guardedby mu
	rpcStage  []float64          //fbvet:guardedby mu
	rpcRel    []float64          //fbvet:guardedby mu
	wire      []float64          //fbvet:guardedby mu
	kept      []obs.SpanEvent    //fbvet:guardedby mu
}

func newSpanCollector() *spanCollector {
	return &spanCollector{childSec: make(map[uint64]float64), stageSec: make(map[uint64]float64)}
}

// recorders returns the server and client flight recorders feeding c.
func (c *spanCollector) recorders() (server, client *span.Recorder) {
	server = span.New(span.Options{SlowThreshold: time.Nanosecond, Dump: spanSink{fn: c.server}})
	client = span.New(span.Options{SlowThreshold: time.Nanosecond, Dump: spanSink{fn: c.client}})
	return server, client
}

func (c *spanCollector) server(e obs.SpanEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.active {
		return
	}
	us := e.DurSec * 1e6
	switch e.Op {
	case "stage.wait":
		c.wait = append(c.wait, us)
		c.childSec[e.Req] += e.DurSec
	case "stage.admit":
		c.childSec[e.Req] += e.DurSec
	case "stage.store":
		c.store = append(c.store, us)
		c.childSec[e.Req] += e.DurSec
	case "stage":
		c.stageSelf = append(c.stageSelf, (e.DurSec-c.childSec[e.Req])*1e6)
		delete(c.childSec, e.Req)
		c.stageSec[e.Req] = e.DurSec
	case "release":
		c.release = append(c.release, us)
	}
	if e.Req%c.every == 0 {
		e.Span += serverSpanOffset
		if e.Op != "stage" && e.Op != "release" && e.Op != "addfile" && e.Op != "stats" {
			e.Parent += serverSpanOffset // a leg: its parent is a server span
		}
		c.keep(e)
	}
}

// keep retains a span of a sampled request, relabeling its request ID so
// requests of different stacks (whose IDs all count from 1) stay apart.
func (c *spanCollector) keep(e obs.SpanEvent) {
	e.Req += c.window << 32
	c.kept = append(c.kept, e)
}

func (c *spanCollector) client(e obs.SpanEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.active {
		return
	}
	us := e.DurSec * 1e6
	switch e.Op {
	case "rpc.stage":
		c.rpcStage = append(c.rpcStage, us)
		// The server dumps its root before it replies, so the root is here.
		if root, ok := c.stageSec[e.Req]; ok {
			c.wire = append(c.wire, (e.DurSec-root)*1e6)
			delete(c.stageSec, e.Req)
		}
	case "rpc.release":
		c.rpcRel = append(c.rpcRel, us)
	}
	if e.Req%c.every == 0 {
		c.keep(e)
	}
}

// record turns collection on for the window-th stack's timed load, keeping
// every span of every every-th request, or off.
func (c *spanCollector) record(on bool, window int, every uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.active, c.window, c.every = on, uint64(window), max(every, 1)
}

// metrics reports the wire, server, wait and store legs over wall seconds
// of traffic.
func (c *spanCollector) metrics(wall float64, into map[string]metric) {
	c.mu.Lock()
	defer c.mu.Unlock()
	set := func(name, unit string, v float64) { into[name] = single(unit, v) }
	q := quantiles(c.wire, 0.5, 0.99)
	set("srm.wire.stage_self_us_p50", "us", q[0])
	set("srm.wire.stage_self_us_p99", "us", q[1])
	q = quantiles(c.rpcStage, 0.5, 0.99)
	set("srm.client.rpc_stage_us_p50", "us", q[0])
	set("srm.client.rpc_stage_us_p99", "us", q[1])
	set("srm.client.rpc_release_us_p50", "us", quantiles(c.rpcRel, 0.5)[0])
	q = quantiles(c.stageSelf, 0.5, 0.99)
	set("srm.server.stage_self_us_p50", "us", q[0])
	set("srm.server.stage_self_us_p99", "us", q[1])
	q = quantiles(c.release, 0.5, 0.99)
	set("srm.server.release_us_p50", "us", q[0])
	set("srm.server.release_us_p99", "us", q[1])
	set("srm.wait.count", "count", float64(len(c.wait)))
	set("srm.wait.us_p99", "us", quantiles(c.wait, 0.99)[0])
	q = quantiles(c.store, 0.5, 0.99)
	set("store.sync_us_p50", "us", q[0])
	set("store.sync_us_p99", "us", q[1])
	set("store.busy_share", "share", sum(c.store)/1e6/wall)
}

// write stores the kept request trees as span JSONL (fbtrace spans).
func (c *spanCollector) write(path string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	sink := obs.NewJSONLSink(w)
	for _, e := range c.kept {
		sink.Span(e)
	}
	if err := sink.Err(); err != nil {
		_ = f.Close() // the encode error is the one to report
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

// srmTrace is what a traced srm stack attaches — span sinks and policy
// timing — and the store counts of the stacks it ran on.
type srmTrace struct {
	spans   *spanCollector
	policy  *timedPolicy
	served  int64 // bytes the store's source served
	loaded  int64 // bytes the policy loaded
	retries int64 // store operations retried
}

// record turns recording on for the window-th stack's timed load, which
// should see about requests requests, or off.
func (t *srmTrace) record(on bool, window int, requests float64) {
	t.spans.record(on, window, uint64(requests/keptPerWindow))
	t.policy.record(on)
}

// addStack adds a checked stack's store counts.
func (t *srmTrace) addStack(s *srmStack) {
	if s.src != nil {
		t.served += s.src.served.Load()
		t.loaded += int64(s.total.loaded)
	}
	t.retries += s.snap.Resilience.Retries
}
