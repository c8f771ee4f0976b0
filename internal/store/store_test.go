package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fbcache/internal/bundle"
)

// fakeSource serves deterministic content per file.
func fakeSource() Source {
	return FetchFunc(func(f bundle.FileID) (io.ReadCloser, error) {
		content := strings.Repeat(fmt.Sprintf("file-%d|", f), int(f)+1)
		return io.NopCloser(bytes.NewReader([]byte(content))), nil
	})
}

func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := New(t.TempDir(), fakeSource())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStageAndOpen(t *testing.T) {
	s := newStore(t)
	size, sum, err := s.Stage(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if size <= 0 || sum == 0 {
		t.Errorf("size=%d sum=%x", size, sum)
	}
	if !s.Contains(3) {
		t.Error("not contained after stage")
	}
	rc, err := s.Open(3)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "file-3|") {
		t.Errorf("content = %q", data)
	}
	if bundle.Size(len(data)) != size {
		t.Errorf("len = %d, staged size %d", len(data), size)
	}
}

func TestStageIdempotent(t *testing.T) {
	s := newStore(t)
	s1, c1, err := s.Stage(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, c2, err := s.Stage(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 || c1 != c2 {
		t.Errorf("restage changed identity: %d/%x vs %d/%x", s1, c1, s2, c2)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	s := newStore(t)
	if _, _, err := s.Stage(4, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(4); err != nil {
		t.Fatalf("fresh file failed verify: %v", err)
	}
	// Corrupt the on-disk bytes behind the store's back.
	path := s.entryFor(4).path
	if err := os.WriteFile(path, []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(4); err == nil {
		t.Error("corruption not detected")
	}
}

func TestRemove(t *testing.T) {
	s := newStore(t)
	if _, _, err := s.Stage(5, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(5, 0); err != nil {
		t.Fatal(err)
	}
	if s.Contains(5) {
		t.Error("contained after remove")
	}
	if _, err := s.Open(5); err == nil {
		t.Error("opened removed file")
	}
	if err := s.Remove(5, 0); err != nil { // idempotent
		t.Errorf("double remove: %v", err)
	}
	// Restaging works.
	if _, _, err := s.Stage(5, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(5); err != nil {
		t.Error(err)
	}
}

func TestDiskUsage(t *testing.T) {
	s := newStore(t)
	if s.DiskUsage() != 0 {
		t.Error("fresh store has usage")
	}
	var want bundle.Size
	for f := bundle.FileID(1); f <= 3; f++ {
		size, _, err := s.Stage(f, 0)
		if err != nil {
			t.Fatal(err)
		}
		want += size
	}
	if got := s.DiskUsage(); got != want {
		t.Errorf("DiskUsage = %d, want %d", got, want)
	}
	s.Remove(2, 0)
	if got := s.DiskUsage(); got >= want {
		t.Errorf("DiskUsage = %d after remove", got)
	}
}

func TestSourceErrorPropagates(t *testing.T) {
	boom := errors.New("tape drive on fire")
	s, err := New(t.TempDir(), FetchFunc(func(bundle.FileID) (io.ReadCloser, error) {
		return nil, boom
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Stage(1, 0); !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
	if s.Contains(1) {
		t.Error("failed stage left residue")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(t.TempDir(), nil); err == nil {
		t.Error("nil source accepted")
	}
}

func TestConcurrentStaging(t *testing.T) {
	s := newStore(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				f := bundle.FileID(i % 5)
				if _, _, err := s.Stage(f, 0); err != nil {
					t.Errorf("stage: %v", err)
					return
				}
				if err := s.Verify(f); err != nil {
					t.Errorf("verify: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for f := bundle.FileID(0); f < 5; f++ {
		if !s.Contains(f) {
			t.Errorf("file %d missing", f)
		}
	}
}

// countingSource serves fakeSource's content and counts the opens.
type countingSource struct{ opens atomic.Int64 }

func (c *countingSource) Open(f bundle.FileID) (io.ReadCloser, error) {
	c.opens.Add(1)
	return fakeSource().Open(f)
}

// TestGenerationOrdering applies one file's stamped intents out of order and
// checks each converges to what the newest intent asked for.
func TestGenerationOrdering(t *testing.T) {
	src := &countingSource{}
	s, err := New(t.TempDir(), src)
	if err != nil {
		t.Fatal(err)
	}
	const f = 7
	load1 := s.Stamp(f)
	if _, _, err := s.Stage(f, load1); err != nil {
		t.Fatal(err)
	}
	if got := s.Intent(f); got != load1 {
		t.Fatalf("Intent = %d, want %d", got, load1)
	}

	// Evict then reload, applied reload-first: the copy from load1 is older
	// than the reload, so it is fetched again, and the stale unlink that
	// arrives afterwards leaves the reloaded file alone.
	evict, reload := s.Stamp(f), s.Stamp(f)
	if _, _, err := s.Stage(f, reload); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(f, evict); err != nil {
		t.Fatal(err)
	}
	if !s.Contains(f) {
		t.Fatal("stale remove deleted a newer load")
	}
	if err := s.Verify(f); err != nil {
		t.Error(err)
	}
	if got := src.opens.Load(); got != 2 {
		t.Errorf("source opened %d times, want 2 (one per load generation)", got)
	}

	// A reader at the current generation costs nothing more.
	if _, _, err := s.Stage(f, s.Intent(f)); err != nil {
		t.Fatal(err)
	}
	if got := src.opens.Load(); got != 2 {
		t.Errorf("hit at the current generation re-fetched: %d opens", got)
	}

	// Load then evict, applied evict-first: the stale load is skipped.
	load, evict := s.Stamp(f), s.Stamp(f)
	if err := s.Remove(f, evict); err != nil {
		t.Fatal(err)
	}
	size, _, err := s.Stage(f, load)
	if err != nil {
		t.Fatal(err)
	}
	if s.Contains(f) || size != 0 {
		t.Errorf("stale load resurrected an evicted file (size %d)", size)
	}
	if got := src.opens.Load(); got != 2 {
		t.Errorf("stale load fetched from the source: %d opens", got)
	}
}

// TestFailedStageKeepsGeneration: a stage that fails applies nothing, so a
// retry at the same generation fetches again.
func TestFailedStageKeepsGeneration(t *testing.T) {
	fail := true
	s, err := New(t.TempDir(), FetchFunc(func(f bundle.FileID) (io.ReadCloser, error) {
		if fail {
			return nil, errors.New("transient")
		}
		return fakeSource().Open(f)
	}))
	if err != nil {
		t.Fatal(err)
	}
	g := s.Stamp(1)
	if _, _, err := s.Stage(1, g); err == nil {
		t.Fatal("failing source staged")
	}
	fail = false
	if _, _, err := s.Stage(1, g); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(1); err != nil {
		t.Error(err)
	}
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("%d entries in the store directory, want 1 (no temp-file residue)", len(entries))
	}
}

// blockReader serves size pseudo-random bytes from a shared block. Like the
// byte sources a deployment uses, it implements neither WriterTo nor
// ReaderFrom, so the store's copy loop does the buffering.
type blockReader struct {
	block []byte
	left  int
}

func (r *blockReader) Read(p []byte) (int, error) {
	if r.left == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), r.left)], r.block)
	r.left -= n
	return n, nil
}

func (r *blockReader) Close() error { return nil }

// BenchmarkStage stages and removes one 64 KB file per iteration: the
// store's cost per miss, excluding the policy.
func BenchmarkStage(b *testing.B) {
	const size = 64 << 10
	block := bytes.Repeat([]byte("fbcache-"), size/8)
	s, err := New(b.TempDir(), FetchFunc(func(bundle.FileID) (io.ReadCloser, error) {
		return &blockReader{block: block, left: size}, nil
	}))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Stage(0, 0); err != nil {
			b.Fatal(err)
		}
		if err := s.Remove(0, 0); err != nil {
			b.Fatal(err)
		}
	}
}
