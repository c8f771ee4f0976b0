package srm

import (
	"strings"
	"sync"
	"testing"
	"time"

	"fbcache/internal/bundle"
	"fbcache/internal/core"
)

func startServer(t *testing.T, capacity bundle.Size) (*Server, *SRM) {
	t.Helper()
	cat := bundle.NewCatalog()
	pol := core.New(capacity, cat.SizeFunc(), core.Options{})
	s := New(pol, cat)
	srv, err := Serve(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, s
}

func TestProtocolRoundTrip(t *testing.T) {
	srv, _ := startServer(t, 100)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for name, size := range map[string]bundle.Size{"a": 10, "b": 20, "c": 30} {
		if err := c.AddFile(name, size); err != nil {
			t.Fatal(err)
		}
	}
	token, hit, loaded, err := c.Stage("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if hit || loaded != 30 || token == "" {
		t.Errorf("stage: token=%q hit=%v loaded=%d", token, hit, loaded)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ActiveJobs != 1 || st.Jobs != 1 || st.Policy != "optfilebundle" {
		t.Errorf("stats = %+v", st)
	}
	if err := c.Release(token); err != nil {
		t.Fatal(err)
	}
	st, _ = c.Stats()
	if st.ActiveJobs != 0 {
		t.Errorf("active after release = %d", st.ActiveJobs)
	}
	// Second stage is a hit.
	_, hit, loaded, err = c.Stage("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if !hit || loaded != 0 {
		t.Errorf("second stage: hit=%v loaded=%d", hit, loaded)
	}
}

func TestProtocolErrors(t *testing.T) {
	srv, _ := startServer(t, 100)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, _, _, err := c.Stage("ghost"); err == nil || !strings.Contains(err.Error(), "unknown file") {
		t.Errorf("stage unknown file: %v", err)
	}
	if err := c.Release("t999"); err == nil {
		t.Error("release of unknown token accepted")
	}
	if err := c.AddFile("", 1); err == nil {
		t.Error("empty name accepted")
	}
	if _, _, _, err := c.Stage(); err == nil {
		t.Error("empty stage accepted")
	}
	// Unknown op straight through roundTrip.
	if _, err := c.roundTrip(Request{Op: "nope"}); err == nil {
		t.Error("unknown op accepted")
	}
}

func TestDisconnectReleasesLeases(t *testing.T) {
	srv, s := startServer(t, 100)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddFile("x", 60); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Stage("x"); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.PinnedBytes != 60 {
		t.Fatalf("pinned = %d", st.PinnedBytes)
	}
	c.Close()
	// The server releases on disconnect asynchronously.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s.Stats().PinnedBytes == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("leases not released on disconnect: %+v", s.Stats())
}

func TestConcurrentClients(t *testing.T) {
	srv, s := startServer(t, 1000)
	setup, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := setup.AddFile(fileName(i), 10); err != nil {
			t.Fatal(err)
		}
	}
	setup.Close()

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			for i := 0; i < 30; i++ {
				a, b := fileName((g+i)%16), fileName((g*3+i*5)%16)
				token, _, _, err := c.Stage(a, b)
				if err != nil {
					t.Errorf("stage: %v", err)
					return
				}
				if err := c.Release(token); err != nil {
					t.Errorf("release: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Jobs != 180 {
		t.Errorf("jobs = %d, want 180", st.Jobs)
	}
	if st.PinnedBytes != 0 || st.ActiveJobs != 0 {
		t.Errorf("leaked: %+v", st)
	}
}

func fileName(i int) string {
	return string(rune('a'+i%26)) + "file"
}

func TestServerCloseStopsAccepting(t *testing.T) {
	srv, _ := startServer(t, 100)
	srv.Close()
	if _, err := Dial(srv.Addr()); err == nil {
		// A dial may still connect before the OS reaps the socket; try a
		// round trip which must fail.
		c, _ := Dial(srv.Addr())
		if c != nil {
			if _, err := c.Stats(); err == nil {
				t.Error("server still serving after Close")
			}
			c.Close()
		}
	}
}
