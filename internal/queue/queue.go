// Package queue implements the admission-queue scheduling of §5.2/§5.3
// ("Incoming Queue Length"): instead of serving jobs strictly first come
// first serve, up to q pending jobs are aggregated and drained in an order
// chosen by a Scheduler — in the paper, highest relative value first,
// repeated on the remaining jobs until the queue empties.
//
// §5.2 also asks for "a fair effective scheduling algorithm, i.e., one that
// avoids request lockout but at the same time minimizes the byte miss
// ratio"; AgeLimit wraps any scheduler with a hard service deadline that
// guarantees no request waits forever.
package queue

import (
	"fmt"

	"fbcache/internal/bundle"
)

// Pending is one queued job as seen by a Scheduler.
type Pending struct {
	// Bundle is the job's file demand.
	Bundle bundle.Bundle
	// Age counts scheduling decisions made since this job was enqueued —
	// the currency of lockout avoidance.
	Age int
}

// Scheduler picks which pending job to serve next. Pick must return a valid
// index into pending (callers guarantee len(pending) > 0).
type Scheduler interface {
	Name() string
	Pick(pending []Pending) int
}

// fcfs serves jobs in arrival order.
type fcfs struct{}

func (fcfs) Name() string       { return "fcfs" }
func (fcfs) Pick([]Pending) int { return 0 }

// FCFS returns the first-come-first-serve scheduler.
func FCFS() Scheduler { return fcfs{} }

// byScore serves the pending job with the highest score; ties go to the
// earliest arrival.
type byScore struct {
	name  string
	score func(bundle.Bundle) float64
}

func (s byScore) Name() string { return s.name }

func (s byScore) Pick(pending []Pending) int {
	best, bestScore := 0, s.score(pending[0].Bundle)
	for i := 1; i < len(pending); i++ {
		if sc := s.score(pending[i].Bundle); sc > bestScore {
			best, bestScore = i, sc
		}
	}
	return best
}

// ByScore returns a scheduler serving the highest-scoring job first.
// The paper's queued experiments use the OptFileBundle relative value as the
// score.
func ByScore(name string, score func(bundle.Bundle) float64) Scheduler {
	if score == nil {
		panic("queue: nil score")
	}
	return byScore{name: name, score: score}
}

// SJF returns shortest-job-first scheduling by total bundle bytes — one of
// the service orders mentioned in §1.1.
func SJF(sizeOf bundle.SizeFunc) Scheduler {
	if sizeOf == nil {
		panic("queue: nil SizeFunc")
	}
	return ByScore("sjf", func(b bundle.Bundle) float64 {
		return -float64(b.TotalSize(sizeOf))
	})
}

// ageLimit decorates a scheduler with a lockout guard.
type ageLimit struct {
	inner  Scheduler
	maxAge int
}

func (a ageLimit) Name() string { return fmt.Sprintf("%s+age%d", a.inner.Name(), a.maxAge) }

func (a ageLimit) Pick(pending []Pending) int {
	// Serve the oldest job once it has been passed over maxAge times;
	// among over-age jobs, the oldest wins.
	best, bestAge := -1, a.maxAge-1
	for i, p := range pending {
		if p.Age > bestAge {
			best, bestAge = i, p.Age
		}
	}
	if best >= 0 {
		return best
	}
	return a.inner.Pick(pending)
}

// AgeLimit wraps sched so that any job passed over maxAge times is served
// next regardless of score — the §5.2 request-lockout guard. maxAge < 1 is
// clamped to 1 (degenerates to FCFS).
func AgeLimit(sched Scheduler, maxAge int) Scheduler {
	if sched == nil {
		panic("queue: nil Scheduler")
	}
	if maxAge < 1 {
		maxAge = 1
	}
	return ageLimit{inner: sched, maxAge: maxAge}
}

// Batcher implements the paper's queue discipline: jobs accumulate until the
// queue holds Length jobs (or input ends), then the whole batch drains in
// scheduler order before new arrivals are admitted.
type Batcher struct {
	length  int
	sched   Scheduler
	serve   func(bundle.Bundle)
	pending []Pending
}

// NewBatcher builds a batcher; length <= 1 degenerates to immediate service.
func NewBatcher(length int, sched Scheduler, serve func(bundle.Bundle)) *Batcher {
	if sched == nil {
		panic("queue: nil Scheduler")
	}
	if serve == nil {
		panic("queue: nil serve func")
	}
	if length < 1 {
		length = 1
	}
	return &Batcher{length: length, sched: sched, serve: serve}
}

// Pending reports the number of queued jobs.
func (b *Batcher) Pending() int { return len(b.pending) }

// Submit enqueues one job, draining the batch when the queue fills.
func (b *Batcher) Submit(req bundle.Bundle) {
	if b.length == 1 {
		b.serve(req)
		return
	}
	b.pending = append(b.pending, Pending{Bundle: req})
	if len(b.pending) >= b.length {
		b.drain()
	}
}

// Flush serves all remaining queued jobs (call at end of input).
func (b *Batcher) Flush() { b.drain() }

func (b *Batcher) drain() {
	for len(b.pending) > 0 {
		i := b.sched.Pick(b.pending)
		if i < 0 || i >= len(b.pending) {
			panic(fmt.Sprintf("queue: scheduler %q picked %d of %d", b.sched.Name(), i, len(b.pending)))
		}
		req := b.pending[i].Bundle
		b.pending = append(b.pending[:i], b.pending[i+1:]...)
		for j := range b.pending {
			b.pending[j].Age++
		}
		b.serve(req)
	}
}
