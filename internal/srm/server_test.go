package srm

import (
	"bytes"
	"errors"
	"net"
	"reflect"
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
	t.Cleanup(func() { _ = srv.Shutdown(0) })
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
	if err := c.AddFile("y", 30); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Stage("x"); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.PinnedBytes != 60 {
		t.Fatalf("pinned = %d", st.PinnedBytes)
	}
	c.Close()
	waitUnpinned(t, s)

	// A client that holds a lease and drops mid-request: half a stage line,
	// then close. The partial line is discarded and the lease released.
	raw := rawStage(t, srv, "y")
	if _, err := raw.Write([]byte(`{"op":"stage","fi`)); err != nil {
		t.Fatal(err)
	}
	raw.Close()
	waitUnpinned(t, s)
	checkServed(t, srv)
}

// waitUnpinned waits for the server to release every lease, which it does
// asynchronously when a connection ends.
func waitUnpinned(t *testing.T, s *SRM) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s.Stats().PinnedBytes == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("leases not released: %+v", s.Stats())
}

// rawStage dials srv without the client codec and stages files on the
// new connection, holding the lease.
func rawStage(t *testing.T, srv *Server, files ...string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	line := appendRequest(nil, &Request{Op: "stage", Files: files})
	if _, err := conn.Write(line); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := newWireReader(conn).readResponse(&resp); err != nil || !resp.OK {
		t.Fatalf("raw stage: %+v, %v", resp, err)
	}
	return conn
}

// checkServed requires a fresh, well-behaved client to be served.
func checkServed(t *testing.T, srv *Server) {
	t.Helper()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Stats(); err != nil {
		t.Fatalf("well-behaved client not served: %v", err)
	}
}

// waitClosed requires the server to close conn within the timeout without
// having answered it.
func waitClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var buf [512]byte
	n, err := conn.Read(buf[:])
	var ne net.Error
	switch {
	case n > 0:
		t.Fatalf("server answered a rejected line: %q", buf[:n])
	case errors.As(err, &ne) && ne.Timeout():
		t.Fatal("server kept the connection open")
	}
}

// An oversized line closes its connection once it passes the 1 MiB bound,
// instead of being buffered for as long as the client keeps sending.
func TestOversizedLineClosesConnection(t *testing.T) {
	srv, s := startServer(t, 100)
	admin, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	if err := admin.AddFile("x", 60); err != nil {
		t.Fatal(err)
	}
	conn := rawStage(t, srv, "x")
	// A valid JSON prefix, so that only the bound, not a syntax error,
	// can end the line.
	if _, err := conn.Write([]byte(`{"op":"addfile","name":"`)); err != nil {
		t.Fatal(err)
	}
	go func() {
		chunk := bytes.Repeat([]byte("a"), 64<<10)
		for sent := 0; sent < 4<<20; sent += len(chunk) {
			if _, err := conn.Write(chunk); err != nil {
				return // the server closed the connection
			}
		}
	}()
	waitClosed(t, conn)
	waitUnpinned(t, s)
	checkServed(t, srv)
}

// A line the codec rejects closes its connection and releases its leases;
// other clients are unaffected.
func TestRejectedLinesCloseConnection(t *testing.T) {
	srv, s := startServer(t, 100)
	admin, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	if err := admin.AddFile("x", 60); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"garbage\n", `{"OP":"stats"}` + "\n", `{"op":"stats","extra":1}` + "\n"} {
		conn := rawStage(t, srv, "x")
		if _, err := conn.Write([]byte(line)); err != nil {
			t.Fatal(err)
		}
		waitClosed(t, conn)
		waitUnpinned(t, s)
		if _, err := admin.Stats(); err != nil {
			t.Fatalf("after %q: other client: %v", line, err)
		}
	}
	checkServed(t, srv)
}

// Stats over the wire equal the server's own snapshot, field for field.
func TestStatsOverWireMatchesSRM(t *testing.T) {
	srv, s := startServer(t, 100)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for name, size := range map[string]bundle.Size{"a": 10, "b": 20, "c": 30, "d": 70} {
		if err := c.AddFile(name, size); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range [][]string{{"a", "b"}, {"a", "b"}, {"c"}, {"d"}, {"a"}} {
		token, _, _, err := c.Stage(b...)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Release(token); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, err := c.Stage("c"); err != nil {
		t.Fatal(err)
	}
	got, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if want := s.Stats(); !reflect.DeepEqual(got, want) {
		t.Errorf("wire stats %+v, server %+v", got, want)
	}
	if got.Jobs != 6 || got.HitRatio == 0 || got.ActiveJobs != 1 {
		t.Errorf("stats not exercised: %+v", got)
	}
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

// TestSharedClientConcurrent shares one Client across goroutines. c.mu
// serializes its round trips, so one goroutine's request and response never
// interleave with another's on the wire; under -race the shared request
// buffer and wire reader are checked too. The cache holds every file, so no
// stage waits on another goroutine's pins.
func TestSharedClientConcurrent(t *testing.T) {
	srv, s := startServer(t, 1000)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 8; i++ {
		if err := c.AddFile(fileName(i), 10); err != nil {
			t.Fatal(err)
		}
	}

	const workers, iters = 4, 25
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				token, _, _, err := c.Stage(fileName((g+i)%8), fileName((g+i+1)%8))
				if err != nil {
					t.Errorf("stage: %v", err)
					return
				}
				if err := c.Release(token); err != nil {
					t.Errorf("release %s: %v", token, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Jobs != workers*iters || st.PinnedBytes != 0 || st.ActiveJobs != 0 {
		t.Errorf("after %d shared-client jobs: %+v", workers*iters, st)
	}
}

func fileName(i int) string {
	return string(rune('a'+i%26)) + "file"
}

func TestShutdownStopsAccepting(t *testing.T) {
	srv, _ := startServer(t, 100)
	if err := srv.Shutdown(0); err != nil {
		t.Fatal(err)
	}
	if _, err := Dial(srv.Addr()); err == nil {
		// A dial may still connect before the OS reaps the socket; try a
		// round trip which must fail.
		c, _ := Dial(srv.Addr())
		if c != nil {
			if _, err := c.Stats(); err == nil {
				t.Error("server still serving after Shutdown")
			}
			c.Close()
		}
	}
}
