// Package jobs implements the job service layer of §1: the SRM's operation
// "is governed by a set of policies such as the job service (or scheduling)
// policy, the file caching policy, and the cache replacement policy". This
// package supplies the first of the three — an asynchronous job manager
// that queues submitted jobs, orders them with a pluggable queue.Scheduler
// (FCFS, SJF, relative value, with the AgeLimit lockout guard), stages each
// job's bundle through the SRM (which owns the other two policies), runs
// the job's work with the bundle pinned, and releases it afterwards.
package jobs

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"fbcache/internal/bundle"
	"fbcache/internal/queue"
	"fbcache/internal/srm"
)

// ErrClosed reports a manager that no longer accepts jobs.
var ErrClosed = errors.New("jobs: manager closed")

// Job is one unit of work.
type Job struct {
	// Bundle is the file set the job needs staged and pinned.
	Bundle bundle.Bundle
	// Process runs with the bundle pinned; nil means no work (staging
	// only). Its error is reported in the Result.
	Process func() error
}

// Result reports a completed job.
type Result struct {
	// Hit reports whether the bundle was fully resident at staging time.
	Hit bool
	// Wait is the time from Submit until staging began.
	Wait time.Duration
	// Err is the staging or processing error, if any.
	Err error
}

// Config tunes the manager.
type Config struct {
	// Workers bounds concurrently running jobs (default 4).
	Workers int
	// Scheduler orders the pending queue (default FCFS).
	Scheduler queue.Scheduler
}

type pendingJob struct {
	job       Job
	submitted time.Time
	age       int
	done      chan Result
}

// Manager is the asynchronous job service. Create with NewManager; Close
// stops intake and waits for running jobs.
type Manager struct {
	service *srm.SRM
	cfg     Config

	mu      sync.Mutex
	cond    *sync.Cond    //fbvet:guardedby mu
	pending []*pendingJob //fbvet:guardedby mu
	closed  bool          //fbvet:guardedby mu
	wg      sync.WaitGroup

	submitted int64 //fbvet:guardedby mu
	completed int64 //fbvet:guardedby mu
	failed    int64 //fbvet:guardedby mu
}

// NewManager starts a manager over the given SRM.
func NewManager(service *srm.SRM, cfg Config) *Manager {
	if service == nil {
		panic("jobs: nil SRM")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = queue.FCFS()
	}
	m := &Manager{service: service, cfg: cfg}
	m.cond = sync.NewCond(&m.mu)
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Submit enqueues a job and returns a channel delivering its Result.
// The channel is buffered; the caller may drop it.
func (m *Manager) Submit(j Job) (<-chan Result, error) {
	p := &pendingJob{job: j, submitted: time.Now(), done: make(chan Result, 1)}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	m.pending = append(m.pending, p)
	m.submitted++
	m.cond.Signal()
	return p.done, nil
}

// Close stops intake, lets queued and running jobs finish, and returns once
// every worker has exited.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	m.wg.Wait()
}

// Stats reports manager counters.
func (m *Manager) Stats() (submitted, completed, failed int64, pending int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.submitted, m.completed, m.failed, len(m.pending)
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		p := m.next()
		if p == nil {
			return
		}
		res := m.run(p)
		m.mu.Lock()
		m.completed++
		if res.Err != nil {
			m.failed++
		}
		m.mu.Unlock()
		p.done <- res
	}
}

// next blocks for the next job chosen by the scheduler, or nil at shutdown
// with an empty queue.
func (m *Manager) next() *pendingJob {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.pending) == 0 && !m.closed {
		m.cond.Wait()
	}
	if len(m.pending) == 0 {
		return nil // closed and drained
	}
	view := make([]queue.Pending, len(m.pending))
	for i, p := range m.pending {
		view[i] = queue.Pending{Bundle: p.job.Bundle, Age: p.age}
	}
	i := m.cfg.Scheduler.Pick(view)
	if i < 0 || i >= len(m.pending) {
		panic(fmt.Sprintf("jobs: scheduler %q picked %d of %d", m.cfg.Scheduler.Name(), i, len(m.pending)))
	}
	p := m.pending[i]
	m.pending = append(m.pending[:i], m.pending[i+1:]...)
	for _, rest := range m.pending {
		rest.age++
	}
	return p
}

// run stages, processes and releases one job.
func (m *Manager) run(p *pendingJob) Result {
	release, stageRes, err := m.service.Stage(p.job.Bundle)
	wait := time.Since(p.submitted)
	if err != nil {
		return Result{Wait: wait, Err: fmt.Errorf("jobs: stage: %w", err)}
	}
	defer release()
	res := Result{Hit: stageRes.Hit, Wait: wait}
	if p.job.Process != nil {
		if perr := p.job.Process(); perr != nil {
			res.Err = fmt.Errorf("jobs: process: %w", perr)
		}
	}
	return res
}
