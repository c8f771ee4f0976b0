package analyzers

import (
	"go/ast"
	"go/parser"
	"go/types"
	"strings"
	"testing"
)

// typecheckSrc type-checks one inline source file against real stdlib
// export data, for engine tests that are easier to read next to their
// assertions than as testdata files.
func typecheckSrc(t *testing.T, src string) *Package {
	t.Helper()
	fset, imp, err := exportImporter(".", []string{"sync", "time"})
	if err != nil {
		t.Fatalf("building importer: %v", err)
	}
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", "amd64")}
	tpkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-checking: %v", err)
	}
	return &Package{ImportPath: "p", Fset: fset, Files: []*ast.File{f}, Types: tpkg, TypesInfo: info}
}

func enginePass(pkg *Package) *Pass {
	return &Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, TypesInfo: pkg.TypesInfo}
}

func findNode(t *testing.T, e *lockEngine, name string) *funcNode {
	t.Helper()
	for _, n := range e.nodes {
		if n.name == name {
			return n
		}
	}
	t.Fatalf("no function node named %q", name)
	return nil
}

// entryLocks renders a node's converged entry state as lock-class IDs.
func entryLocks(e *lockEngine, n *funcNode) []string {
	return e.classSet(n.entry)
}

// TestEngineEntryStates drives the interprocedural entry-state fixpoint
// through its hard cases: self-recursion, mutual recursion, method values,
// and goroutine entry points.
func TestEngineEntryStates(t *testing.T) {
	const src = `package p

import "sync"

type S struct {
	mu sync.Mutex
	n  int
}

// Self-recursion: every call path into rec holds s.mu, including rec's own
// recursive call, so the fixpoint must converge to {(S).mu}.
func (s *S) RecEntry() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rec(3)
}

func (s *S) rec(d int) {
	if d == 0 {
		return
	}
	s.n++
	s.rec(d - 1)
}

// Mutual recursion: a and b only ever reach each other from MutualEntry's
// locked region; optimistic iteration must not get stuck at "unknown".
func (s *S) MutualEntry() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.a(0)
}

func (s *S) a(d int) {
	if d > 3 {
		return
	}
	s.n++
	s.b(d + 1)
}

func (s *S) b(d int) {
	s.a(d + 1)
}

// taken is referenced as a method value, so it can run from anywhere:
// its entry state must be pinned to nothing-held even though its only
// direct caller holds the lock.
func (s *S) TakenEntry() func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.taken()
	return s.taken
}

func (s *S) taken() {
	s.n++
}

// spawned runs on its own goroutine: the spawning caller's locks are not
// held there.
func (s *S) SpawnEntry() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go s.spawned()
}

func (s *S) spawned() {
	s.n++
}
`
	pkg := typecheckSrc(t, src)
	eng := newLockEngine(enginePass(pkg))

	cases := []struct {
		fn   string
		want []string
	}{
		{"(*S).rec", []string{"(S).mu"}},
		{"(*S).a", []string{"(S).mu"}},
		{"(*S).b", []string{"(S).mu"}},
		{"(*S).taken", nil},
		{"(*S).spawned", nil},
	}
	for _, tc := range cases {
		got := entryLocks(eng, findNode(t, eng, tc.fn))
		if strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Errorf("%s entry = %v, want %v", tc.fn, got, tc.want)
		}
	}
}

// TestEngineDeferredUnlockInLoop checks the two-pass loop walk: a deferred
// unlock inside a loop keeps the lock held into the next iteration, so the
// re-acquisition must surface as a self-deadlock.
func TestEngineDeferredUnlockInLoop(t *testing.T) {
	const src = `package p

import "sync"

type S struct{ mu sync.Mutex }

func (s *S) loopDefer() {
	for i := 0; i < 4; i++ {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
}

// loopPaired releases within each iteration; no finding.
func (s *S) loopPaired() {
	for i := 0; i < 4; i++ {
		s.mu.Lock()
		s.mu.Unlock()
	}
}
`
	pkg := typecheckSrc(t, src)
	diags := Run(pkg, []*Analyzer{LockOrder}, nil)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly 1: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "self-deadlock") {
		t.Errorf("unexpected message: %s", diags[0].Message)
	}
	if !strings.Contains(diags[0].Message, "loopDefer") {
		t.Errorf("diagnostic should name loopDefer: %s", diags[0].Message)
	}
}

// TestEngineTransitiveSummaries checks the upward fixpoint: an acquisition
// three helpers deep appears in the top caller's transitive summary with
// the full witnessing call chain.
func TestEngineTransitiveSummaries(t *testing.T) {
	const src = `package p

import "sync"

type S struct {
	mu sync.Mutex
	n  int
	ch chan int
}

func (s *S) h1() { s.h2() }
func (s *S) h2() { s.h3() }
func (s *S) h3() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

func (s *S) spawnAndClose() {
	go s.h1()
	go s.h1()
	close(s.ch)
}
`
	pkg := typecheckSrc(t, src)
	eng := newLockEngine(enginePass(pkg))

	h1 := eng.facts[findNode(t, eng, "(*S).h1")].summary
	wit, ok := h1.Transitive["(S).mu"]
	if !ok {
		t.Fatalf("h1 transitive summary misses (S).mu: %v", h1.Transitive)
	}
	if got := strings.Join(wit.path, " -> "); got != "(*S).h2 -> (*S).h3" {
		t.Errorf("witness path = %q, want %q", got, "(*S).h2 -> (*S).h3")
	}
	if len(h1.Acquires) != 0 {
		t.Errorf("h1 acquires directly: %v", h1.Acquires)
	}
	h3 := eng.facts[findNode(t, eng, "(*S).h3")].summary
	if _, ok := h3.Acquires["(S).mu"]; !ok {
		t.Errorf("h3 direct acquires missing (S).mu: %v", h3.Acquires)
	}
	if _, ok := h3.Releases["(S).mu"]; !ok {
		t.Errorf("h3 releases missing (S).mu: %v", h3.Releases)
	}
	if got := h3.Writes["(S).n"]; strings.Join(got, ",") != "(S).mu" {
		t.Errorf("h3 writes (S).n under %v, want [(S).mu]", got)
	}

	sac := eng.facts[findNode(t, eng, "(*S).spawnAndClose")].summary
	if sac.Spawns != 2 {
		t.Errorf("spawnAndClose Spawns = %d, want 2", sac.Spawns)
	}
	if sac.Closes != 1 {
		t.Errorf("spawnAndClose Closes = %d, want 1", sac.Closes)
	}
}

// TestEngineFuncLitEntries checks literal entry states: a literal passed
// synchronously to an in-package call inherits the creation-site locks; a
// deferred or go literal starts with nothing held.
func TestEngineFuncLitEntries(t *testing.T) {
	const src = `package p

import "sync"

type S struct {
	mu sync.Mutex
	n  int
}

func (s *S) withRetry(op func()) {
	for i := 0; i < 3; i++ {
		op()
	}
}

func (s *S) Update() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.withRetry(func() { s.n++ })
	go func() { s.helperUnlocked() }()
}

func (s *S) helperUnlocked() {}
`
	pkg := typecheckSrc(t, src)
	eng := newLockEngine(enginePass(pkg))

	inherited := findNode(t, eng, "(*S).Update.func1")
	if got := entryLocks(eng, inherited); strings.Join(got, ",") != "(S).mu" {
		t.Errorf("synchronous callback entry = %v, want [(S).mu]", got)
	}
	spawned := findNode(t, eng, "(*S).Update.func2")
	if got := entryLocks(eng, spawned); len(got) != 0 {
		t.Errorf("go-literal entry = %v, want empty", got)
	}
}
