package jobs

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fbcache/internal/bundle"
	"fbcache/internal/core"
	"fbcache/internal/queue"
	"fbcache/internal/srm"
)

func newService(capacity bundle.Size, fileSizes ...bundle.Size) *srm.SRM {
	cat := bundle.NewCatalog()
	for _, s := range fileSizes {
		cat.AddAnonymous(s)
	}
	pol := core.New(capacity, cat.SizeFunc(), core.Options{})
	return srm.New(pol, cat)
}

func TestSubmitAndComplete(t *testing.T) {
	s := newService(100, 10, 20)
	m := NewManager(s, Config{Workers: 2})
	defer m.Close()

	var ran atomic.Bool
	done, err := m.Submit(Job{
		Bundle:  bundle.New(0, 1),
		Process: func() error { ran.Store(true); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Hit {
		t.Error("cold job reported hit")
	}
	if !ran.Load() {
		t.Error("Process did not run")
	}
	// Second submission of the same bundle hits.
	done, _ = m.Submit(Job{Bundle: bundle.New(0, 1)})
	if res := <-done; !res.Hit {
		t.Error("warm job missed")
	}
	sub, comp, failed, pending := m.Stats()
	if sub != 2 || comp != 2 || failed != 0 || pending != 0 {
		t.Errorf("stats = %d %d %d %d", sub, comp, failed, pending)
	}
}

func TestProcessErrorReported(t *testing.T) {
	s := newService(100, 10)
	m := NewManager(s, Config{Workers: 1})
	defer m.Close()
	boom := errors.New("boom")
	done, _ := m.Submit(Job{Bundle: bundle.New(0), Process: func() error { return boom }})
	res := <-done
	if !errors.Is(res.Err, boom) {
		t.Errorf("err = %v", res.Err)
	}
	_, _, failed, _ := func() (int64, int64, int64, int) { return m.Stats() }()
	if failed != 1 {
		t.Errorf("failed = %d", failed)
	}
}

func TestStageErrorReported(t *testing.T) {
	s := newService(5, 10) // file bigger than cache
	m := NewManager(s, Config{Workers: 1})
	defer m.Close()
	done, _ := m.Submit(Job{Bundle: bundle.New(0)})
	res := <-done
	if !errors.Is(res.Err, srm.ErrTooLarge) {
		t.Errorf("err = %v", res.Err)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	s := newService(100, 10)
	m := NewManager(s, Config{})
	m.Close()
	if _, err := m.Submit(Job{Bundle: bundle.New(0)}); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v", err)
	}
}

func TestCloseDrainsQueuedJobs(t *testing.T) {
	s := newService(100, 10, 10, 10, 10)
	m := NewManager(s, Config{Workers: 1})
	var chans []<-chan Result
	for i := 0; i < 4; i++ {
		done, err := m.Submit(Job{
			Bundle:  bundle.New(bundle.FileID(i)),
			Process: func() error { time.Sleep(time.Millisecond); return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, done)
	}
	m.Close() // must wait for all four
	for i, ch := range chans {
		select {
		case res := <-ch:
			if res.Err != nil {
				t.Errorf("job %d: %v", i, res.Err)
			}
		default:
			t.Fatalf("job %d not completed by Close", i)
		}
	}
}

func TestSchedulerOrderRespected(t *testing.T) {
	// One worker, SJF ordering: the pending queue drains smallest first.
	s := newService(100, 30, 10, 20)
	var order []bundle.FileID
	var mu sync.Mutex
	record := func(f bundle.FileID) func() error {
		return func() error {
			mu.Lock()
			order = append(order, f)
			mu.Unlock()
			return nil
		}
	}
	// Block the single worker with a long first job so the others queue up.
	gate := make(chan struct{})
	m := NewManager(s, Config{
		Workers:   1,
		Scheduler: queue.SJF(func(f bundle.FileID) bundle.Size { return []bundle.Size{30, 10, 20}[f] }),
	})
	defer m.Close()
	first, _ := m.Submit(Job{Bundle: bundle.New(0), Process: func() error { <-gate; return nil }})
	time.Sleep(20 * time.Millisecond) // let the worker grab job 0
	d1, _ := m.Submit(Job{Bundle: bundle.New(1), Process: record(1)})
	d2, _ := m.Submit(Job{Bundle: bundle.New(2), Process: record(2)})
	close(gate)
	<-first
	<-d1
	<-d2
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("order = %v, want [1 2] (smallest first)", order)
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	cat := bundle.NewCatalog()
	for i := 0; i < 16; i++ {
		cat.AddAnonymous(5)
	}
	pol := core.New(100, cat.SizeFunc(), core.Options{})
	s := srm.New(pol, cat)
	m := NewManager(s, Config{Workers: 4, Scheduler: queue.AgeLimit(queue.FCFS(), 8)})
	defer m.Close()

	var wg sync.WaitGroup
	var hits atomic.Int64
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				b := bundle.New(bundle.FileID((g*5+i)%16), bundle.FileID((g+3*i)%16))
				done, err := m.Submit(Job{Bundle: b})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if res := <-done; res.Err != nil {
					t.Errorf("job: %v", res.Err)
					return
				} else if res.Hit {
					hits.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	sub, comp, failed, pending := m.Stats()
	if sub != 180 || comp != 180 || failed != 0 || pending != 0 {
		t.Errorf("stats = %d %d %d %d", sub, comp, failed, pending)
	}
	if hits.Load() == 0 {
		t.Error("no hits across 180 overlapping jobs")
	}
	if err := pol.Cache().CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestNilSRMPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewManager(nil, Config{})
}
