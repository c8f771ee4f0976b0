package analyzers

// This file is the suite's interprocedural substrate, layered on the
// intra-procedural taint engine of dataflow.go: a package-level call graph
// plus per-function summaries (locks acquired and released, fields read and
// written under which locks, goroutines spawned, channels closed) so the
// concurrency analyzers (lockorder, guardedby) see through helper calls —
// the "Called with s.mu held" comments on helpers like srm.syncStore become
// checked facts instead of trusted prose.
//
// Two fixpoints run over the graph:
//
//   - entry states (downward, intersection): for every unexported function
//     reached only from inside the package, the locks that EVERY caller
//     holds at EVERY callsite, mapped through the receiver (x.helper() with
//     x.mu held means the helper's receiver holds mu). Exported functions,
//     functions taken as values (method values, callbacks), and goroutine
//     entry points start with nothing held. Iteration starts optimistic
//     (unresolved callers contribute nothing) and converges on
//     mutually-recursive helpers because entries only shrink once set.
//
//   - transitive acquisitions (upward, union): every class-level lock a
//     function can acquire through any chain of in-package calls, with a
//     witnessing call path for diagnostics.
//
// The lock-state walker underneath is flow-sensitive per statement:
// branches are walked separately and merged by intersection (a lock held on
// only one arm is not held after the merge), branches that terminate
// (return, panic, os.Exit) are excluded from the merge, a deferred Unlock
// keeps the lock held to function exit, and loop bodies are walked twice so
// state that survives one iteration — a deferred unlock inside a loop —
// meets its own re-acquisition. Function literals are never inlined: they
// run at an unknown time, so each is analyzed as its own function with
// nothing held at entry.
//
// sync.Cond needs no special casing: Wait atomically releases and
// re-acquires its locker, so "held across the Wait" is exactly what the
// walker models by not treating Wait as a lock operation.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
)

// lockMode distinguishes exclusive from shared acquisition.
type lockMode uint8

const (
	// modeWrite is Lock/TryLock — exclusive.
	modeWrite lockMode = iota
	// modeRead is RLock/TryRLock — shared; writes under it are a finding.
	modeRead
)

// heldKey names one mutex instance as precisely as the analysis can see it:
// the root object the lock was reached through (a receiver, a local, or the
// mutex variable itself) plus the mutex field within it.
type heldKey struct {
	base  types.Object // root identifier's object; the mutex var when field == nil
	field *types.Var   // mutex field; nil for a bare mutex variable
}

// lockSet is the set of locks held at a program point, with their modes.
type lockSet map[heldKey]lockMode

func (s lockSet) clone() lockSet {
	out := make(lockSet, len(s))
	for k, m := range s {
		out[k] = m
	}
	return out
}

// intersectLocks keeps locks held on both paths; a lock shared on either
// path merges to shared (only the weaker guarantee survives).
func intersectLocks(a, b lockSet) lockSet {
	out := make(lockSet)
	for k, ma := range a {
		if mb, ok := b[k]; ok {
			m := ma
			if mb == modeRead {
				m = modeRead
			}
			out[k] = m
		}
	}
	return out
}

func equalLocks(a, b lockSet) bool {
	if len(a) != len(b) {
		return false
	}
	for k, m := range a {
		if mb, ok := b[k]; !ok || mb != m {
			return false
		}
	}
	return true
}

// funcNode is one analyzed body: a declared function or method, or a
// function literal (which gets its own node and an empty entry state).
type funcNode struct {
	name string
	fn   *types.Func // nil for function literals
	decl *ast.FuncDecl
	lit  *ast.FuncLit
	body *ast.BlockStmt
	recv *types.Var // named receiver variable, or nil

	entry    lockSet // locks held at entry after the fixpoint
	entryTop bool    // true while the entry state is still unresolved (⊤)
}

// acquireEvent is one lock acquisition observed in a body.
type acquireEvent struct {
	pos  token.Pos
	key  heldKey
	mode lockMode
	held lockSet // locks already held at the acquisition
}

// callEvent is one in-package callsite with the caller's lock state.
type callEvent struct {
	call   *ast.CallExpr
	callee *funcNode
	held   lockSet
	spawn  bool // go statement: the callee runs with nothing held
}

// accessEvent is one struct-field selector with the lock state it ran under.
type accessEvent struct {
	sel   *ast.SelectorExpr
	field *types.Var
	held  lockSet
	write bool
}

// acqWitness records where a transitively-reachable acquisition happens and
// the call chain that reaches it (empty for direct acquisitions).
type acqWitness struct {
	pos  token.Pos
	path []string
}

// funcSummary is the per-function digest of the ISSUE's engine contract:
// locks acquired/released, fields read/written under which locks,
// goroutines spawned, channels closed.
type funcSummary struct {
	Name       string
	Acquires   map[string]token.Pos  // class-level lock → first direct acquisition
	Releases   map[string]token.Pos  // class-level lock → first release
	Transitive map[string]acqWitness // acquires reachable through in-package calls
	Spawns     int                   // go statements in the body
	Closes     int                   // close(ch) calls in the body
	Reads      map[string][]string   // struct field → class-level locks held at some read
	Writes     map[string][]string   // struct field → class-level locks held at some write
}

// funcFacts bundles a node with everything one converged walk observed.
type funcFacts struct {
	node      *funcNode
	summary   *funcSummary
	acquires  []acquireEvent
	callsites []callEvent
	accesses  []accessEvent
}

// lockEngine ties the call graph, entry states, and summaries together for
// one package.
type lockEngine struct {
	pass     *Pass
	nodes    []*funcNode
	byFn     map[*types.Func]*funcNode
	owner    map[*types.Var]string // struct field → owning type name
	valueRef map[*funcNode]bool    // taken as a function/method value somewhere
	writes   map[ast.Expr]bool     // selector expressions in write position
	fresh    map[types.Object]bool // locals only ever assigned fresh composites
	facts    map[*funcNode]*funcFacts
}

// newLockEngine builds the engine and runs both fixpoints; facts are ready
// for the analyzers afterwards.
func newLockEngine(pass *Pass) *lockEngine {
	e := &lockEngine{
		pass:     pass,
		byFn:     make(map[*types.Func]*funcNode),
		owner:    make(map[*types.Var]string),
		valueRef: make(map[*funcNode]bool),
		writes:   make(map[ast.Expr]bool),
		fresh:    make(map[types.Object]bool),
		facts:    make(map[*funcNode]*funcFacts),
	}
	e.collectNodes()
	e.collectOwners()
	e.collectWrites()
	e.collectFresh()
	e.collectValueRefs()
	e.computeEntryStates()
	e.propagateLitEntries()
	e.collectFacts()
	e.computeTransitive()
	return e
}

// collectNodes enumerates declared functions and, separately, every function
// literal (lits are never inlined — see the file comment).
func (e *lockEngine) collectNodes() {
	for _, file := range e.pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			n := &funcNode{name: fd.Name.Name, decl: fd, body: fd.Body}
			if fn, ok := e.pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				n.fn = fn
				e.byFn[fn] = n
			}
			if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
				if v, ok := e.pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]].(*types.Var); ok {
					n.recv = v
				}
				if n.fn != nil {
					n.name = recvTypeName(n.fn) + "." + fd.Name.Name
				}
			}
			e.nodes = append(e.nodes, n)
			litN := 0
			ast.Inspect(fd.Body, func(x ast.Node) bool {
				if lit, ok := x.(*ast.FuncLit); ok {
					litN++
					e.nodes = append(e.nodes, &funcNode{
						name: n.name + ".func" + strconv.Itoa(litN),
						lit:  lit,
						body: lit.Body,
					})
				}
				return true
			})
		}
	}
}

// recvTypeName renders a method's receiver type ("(*SRM)" or "(Cache)").
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "(?)"
	}
	t := sig.Recv().Type()
	star := ""
	if p, ok := t.(*types.Pointer); ok {
		t, star = p.Elem(), "*"
	}
	if named, ok := t.(*types.Named); ok {
		return "(" + star + named.Obj().Name() + ")"
	}
	return "(?)"
}

// collectOwners indexes every struct field in the package to its owning type
// name, so lock and field identities render as "(*SRM).mu".
func (e *lockEngine) collectOwners() {
	scope := e.pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			e.owner[st.Field(i)] = tn.Name()
		}
	}
}

// classID renders a lock instance-blind: "(*SRM).mu" for fields, "var mu"
// for package-level or local mutex variables.
func (e *lockEngine) classID(k heldKey) string {
	if k.field == nil {
		return "var " + k.base.Name()
	}
	if o, ok := e.owner[k.field]; ok {
		return "(" + o + ")." + k.field.Name()
	}
	return "(?)." + k.field.Name()
}

// classSet renders a held set as sorted class IDs.
func (e *lockEngine) classSet(held lockSet) []string {
	out := make([]string, 0, len(held))
	for k := range held {
		out = append(out, e.classID(k))
	}
	sort.Strings(out)
	return out
}

// fieldID renders a struct field ("(Store).files").
func (e *lockEngine) fieldID(f *types.Var) string {
	if o, ok := e.owner[f]; ok {
		return "(" + o + ")." + f.Name()
	}
	return f.Name()
}

// collectWrites marks every selector expression in write position:
// assignment targets (through index/slice/star), ++/--, delete(m, k), and
// address-taken operands (conservatively a write — the pointer escapes).
func (e *lockEngine) collectWrites() {
	mark := func(l ast.Expr) {
		for {
			switch x := l.(type) {
			case *ast.ParenExpr:
				l = x.X
			case *ast.IndexExpr:
				l = x.X
			case *ast.SliceExpr:
				l = x.X
			case *ast.StarExpr:
				l = x.X
			case *ast.SelectorExpr:
				e.writes[x] = true
				return
			default:
				return
			}
		}
	}
	for _, file := range e.pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, l := range x.Lhs {
					mark(l)
				}
			case *ast.IncDecStmt:
				mark(x.X)
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					mark(x.X)
				}
			case *ast.RangeStmt:
				mark(x.Key)
				mark(x.Value)
			case *ast.CallExpr:
				if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "delete" && len(x.Args) == 2 {
					if _, isBuiltin := e.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
						mark(x.Args[0])
					}
				}
			}
			return true
		})
	}
}

// collectFresh finds locals every assignment of which is a freshly built
// composite (&T{...}, T{...}, new(T)): accesses through them are
// constructor-time initialization no lock can or need guard.
func (e *lockEngine) collectFresh() {
	freshCand := make(map[types.Object]bool)
	notFresh := make(map[types.Object]bool)
	isFresh := func(r ast.Expr) bool {
		r = unparen(r)
		if u, ok := r.(*ast.UnaryExpr); ok && u.Op == token.AND {
			r = unparen(u.X)
		}
		if _, ok := r.(*ast.CompositeLit); ok {
			return true
		}
		if call, ok := r.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "new" {
				_, isBuiltin := e.pass.TypesInfo.Uses[id].(*types.Builtin)
				return isBuiltin
			}
		}
		return false
	}
	for _, file := range e.pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, l := range as.Lhs {
				id, ok := l.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := e.pass.TypesInfo.ObjectOf(id)
				if obj == nil {
					continue
				}
				if len(as.Lhs) == len(as.Rhs) && isFresh(as.Rhs[i]) {
					freshCand[obj] = true
				} else {
					notFresh[obj] = true
				}
			}
			return true
		})
	}
	for obj := range freshCand {
		if !notFresh[obj] {
			e.fresh[obj] = true
		}
	}
}

// collectValueRefs finds functions referenced outside call position (method
// values, callbacks): they can run from anywhere, so their entry state is
// pinned to "nothing held".
func (e *lockEngine) collectValueRefs() {
	calleeIdents := make(map[*ast.Ident]bool)
	for _, file := range e.pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch f := unparen(call.Fun).(type) {
			case *ast.Ident:
				calleeIdents[f] = true
			case *ast.SelectorExpr:
				calleeIdents[f.Sel] = true
			}
			return true
		})
	}
	for _, file := range e.pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || calleeIdents[id] {
				return true
			}
			fn, ok := e.pass.TypesInfo.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			if node, ok := e.byFn[fn]; ok {
				e.valueRef[node] = true
			}
			return true
		})
	}
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// staticCallee resolves a call to the *types.Func it statically names, or
// nil for dynamic calls (function values, interface methods).
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

func (e *lockEngine) calleeNode(call *ast.CallExpr) *funcNode {
	fn := staticCallee(e.pass.TypesInfo, call)
	if fn == nil {
		return nil
	}
	return e.byFn[fn]
}

// mapToCallee translates the caller's held set into the callee's frame:
// package-level locks survive unchanged; locks reached through the call's
// receiver (x.helper() with x.mu held) move onto the callee's receiver.
func (e *lockEngine) mapToCallee(call *ast.CallExpr, held lockSet, callee *funcNode) lockSet {
	out := make(lockSet)
	pkgScope := e.pass.Pkg.Scope()
	for k, m := range held {
		if k.base.Parent() == pkgScope {
			out[k] = m
		}
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || callee.recv == nil {
		return out
	}
	id, ok := unparen(sel.X).(*ast.Ident)
	if !ok {
		return out
	}
	xobj := e.pass.TypesInfo.ObjectOf(id)
	if xobj == nil {
		return out
	}
	for k, m := range held {
		if k.base == xobj && k.field != nil {
			out[heldKey{base: callee.recv, field: k.field}] = m
		}
	}
	return out
}

// maxSummaryIters bounds both interprocedural fixpoints. Entry states only
// shrink once set and transitive sets only grow within a finite lock
// universe, so real packages converge in a handful of rounds; the bound is
// a defensive backstop like maxTaintIters.
const maxSummaryIters = 16

// computeEntryStates runs the downward intersection fixpoint described in
// the file comment.
func (e *lockEngine) computeEntryStates() {
	cand := make(map[*funcNode]bool)
	for _, n := range e.nodes {
		eligible := n.decl != nil && n.fn != nil && !n.fn.Exported() &&
			!e.valueRef[n] && n.decl.Name.Name != "init" && n.decl.Name.Name != "main"
		if eligible {
			cand[n] = true
			n.entryTop = true
		} else {
			n.entry = make(lockSet)
		}
	}
	for iter := 0; iter < maxSummaryIters; iter++ {
		contrib := make(map[*funcNode][]lockSet)
		sawTop := make(map[*funcNode]bool)
		for _, caller := range e.nodes {
			callerTop := caller.entryTop
			e.walk(caller, walkHooks{
				call: func(call *ast.CallExpr, held lockSet) {
					callee := e.calleeNode(call)
					if callee == nil || !cand[callee] {
						return
					}
					if callerTop {
						sawTop[callee] = true
						return
					}
					contrib[callee] = append(contrib[callee], e.mapToCallee(call, held, callee))
				},
				goCall: func(call *ast.CallExpr, held lockSet) {
					callee := e.calleeNode(call)
					if callee == nil || !cand[callee] {
						return
					}
					// A spawned callee runs concurrently: nothing is held for it.
					contrib[callee] = append(contrib[callee], make(lockSet))
				},
			})
		}
		changed := false
		for n := range cand {
			sets := contrib[n]
			if len(sets) == 0 {
				// No resolved callers. If unresolved ones exist, stay ⊤ for now;
				// otherwise the function is unreached from in-package code.
				if !sawTop[n] && n.entryTop {
					n.entryTop = false
					n.entry = make(lockSet)
					changed = true
				}
				continue
			}
			next := sets[0].clone()
			for _, s := range sets[1:] {
				next = intersectLocks(next, s)
			}
			if n.entryTop || !equalLocks(n.entry, next) {
				n.entryTop = false
				n.entry = next
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Anything still ⊤ sits on an unreachable cycle; analyze it standalone.
	for n := range cand {
		if n.entryTop {
			n.entryTop = false
			n.entry = make(lockSet)
		}
	}
}

// propagateLitEntries refines the entry state of function literals that run
// synchronously where they are created: a literal passed directly as an
// argument to an in-package call (the retryStore(func() error {...}) shape)
// inherits the locks held at the callsite. Literals spawned with go,
// deferred, stored in variables, returned, or handed to other packages
// (time.AfterFunc) keep the empty entry — they run at an unknown time.
// Nodes are in source order (outer literals before the ones nested inside
// them), so an inherited entry is set before the literal itself is walked.
func (e *lockEngine) propagateLitEntries() {
	inherit := make(map[*ast.FuncLit]bool)
	for _, file := range e.pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || e.calleeNode(call) == nil {
				return true
			}
			for _, a := range call.Args {
				if lit, ok := unparen(a).(*ast.FuncLit); ok {
					inherit[lit] = true
				}
			}
			return true
		})
	}
	byLit := make(map[*ast.FuncLit]*funcNode)
	for _, n := range e.nodes {
		if n.lit != nil {
			byLit[n.lit] = n
		}
	}
	for _, n := range e.nodes {
		e.walk(n, walkHooks{
			funcLit: func(lit *ast.FuncLit, held lockSet) {
				if ln := byLit[lit]; ln != nil && inherit[lit] {
					ln.entry = held.clone()
				}
			},
		})
	}
}

// collectFacts performs the single converged walk per function, recording
// acquisitions, callsites, field accesses, and the summary counters.
func (e *lockEngine) collectFacts() {
	for _, n := range e.nodes {
		f := &funcFacts{
			node: n,
			summary: &funcSummary{
				Name:       n.name,
				Acquires:   make(map[string]token.Pos),
				Releases:   make(map[string]token.Pos),
				Transitive: make(map[string]acqWitness),
				Reads:      make(map[string][]string),
				Writes:     make(map[string][]string),
			},
		}
		e.walk(n, walkHooks{
			acquire: func(pos token.Pos, k heldKey, mode lockMode, held lockSet) {
				f.acquires = append(f.acquires, acquireEvent{pos: pos, key: k, mode: mode, held: held.clone()})
				id := e.classID(k)
				if _, ok := f.summary.Acquires[id]; !ok {
					f.summary.Acquires[id] = pos
				}
				if _, ok := f.summary.Transitive[id]; !ok {
					f.summary.Transitive[id] = acqWitness{pos: pos}
				}
			},
			release: func(pos token.Pos, k heldKey) {
				id := e.classID(k)
				if _, ok := f.summary.Releases[id]; !ok {
					f.summary.Releases[id] = pos
				}
			},
			call: func(call *ast.CallExpr, held lockSet) {
				if callee := e.calleeNode(call); callee != nil {
					f.callsites = append(f.callsites, callEvent{call: call, callee: callee, held: held.clone()})
				}
			},
			goCall: func(call *ast.CallExpr, held lockSet) {
				f.summary.Spawns++
				if callee := e.calleeNode(call); callee != nil {
					f.callsites = append(f.callsites, callEvent{call: call, callee: callee, held: held.clone(), spawn: true})
				}
			},
			closeCh: func(call *ast.CallExpr, held lockSet) {
				f.summary.Closes++
			},
			access: func(sel *ast.SelectorExpr, held lockSet, write bool) {
				s, ok := e.pass.TypesInfo.Selections[sel]
				if !ok || s.Kind() != types.FieldVal {
					return
				}
				fv, ok := s.Obj().(*types.Var)
				if !ok {
					return
				}
				f.accesses = append(f.accesses, accessEvent{sel: sel, field: fv, held: held.clone(), write: write})
				if _, owned := e.owner[fv]; owned {
					if write {
						f.summary.Writes[e.fieldID(fv)] = e.classSet(held)
					} else if _, ok := f.summary.Reads[e.fieldID(fv)]; !ok {
						f.summary.Reads[e.fieldID(fv)] = e.classSet(held)
					}
				}
			},
		})
		e.facts[n] = f
	}
}

// computeTransitive runs the upward union fixpoint: each function's
// transitive acquisitions absorb its in-package callees', with the call
// chain recorded for diagnostics. First witness wins, which both keeps
// messages stable and guarantees termination.
func (e *lockEngine) computeTransitive() {
	for iter := 0; iter < maxSummaryIters; iter++ {
		changed := false
		for _, n := range e.nodes {
			s := e.facts[n].summary
			for _, cs := range e.facts[n].callsites {
				for lock, w := range e.facts[cs.callee].summary.Transitive {
					if _, ok := s.Transitive[lock]; ok {
						continue
					}
					path := append([]string{cs.callee.name}, w.path...)
					s.Transitive[lock] = acqWitness{pos: cs.call.Pos(), path: path}
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
}

// walkHooks are the walker's observation points; any may be nil.
type walkHooks struct {
	acquire func(pos token.Pos, k heldKey, mode lockMode, held lockSet)
	release func(pos token.Pos, k heldKey)
	call    func(call *ast.CallExpr, held lockSet)
	goCall  func(call *ast.CallExpr, held lockSet)
	closeCh func(call *ast.CallExpr, held lockSet)
	access  func(sel *ast.SelectorExpr, held lockSet, write bool)
	funcLit func(lit *ast.FuncLit, held lockSet)
}

// walk runs the flow-sensitive lock-state walker over n's body, starting
// from its converged entry state.
func (e *lockEngine) walk(n *funcNode, hooks walkHooks) {
	w := &stmtWalker{engine: e, node: n, hooks: hooks}
	entry := make(lockSet)
	if n.entry != nil && !n.entryTop {
		entry = n.entry.clone()
	}
	w.stmts(n.body.List, entry)
}

type stmtWalker struct {
	engine *lockEngine
	node   *funcNode
	hooks  walkHooks
}

// stmts threads the lock state through a statement list; the bool reports
// whether the straight-line path terminated (return/panic/branch).
func (w *stmtWalker) stmts(list []ast.Stmt, held lockSet) (lockSet, bool) {
	for _, s := range list {
		var term bool
		held, term = w.stmt(s, held)
		if term {
			return held, true
		}
	}
	return held, false
}

func (w *stmtWalker) stmt(s ast.Stmt, held lockSet) (lockSet, bool) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if k, mode, acquire, ok := w.lockOp(call); ok {
				if acquire {
					if w.hooks.acquire != nil {
						w.hooks.acquire(call.Pos(), k, mode, held)
					}
					held[k] = mode
				} else {
					if w.hooks.release != nil {
						w.hooks.release(call.Pos(), k)
					}
					delete(held, k)
				}
				return held, false
			}
		}
		w.expr(st.X, held)
		return held, isTerminalCall(w.engine.pass, st.X)
	case *ast.DeferStmt:
		if _, _, acquire, ok := w.lockOp(st.Call); ok && !acquire {
			// defer x.mu.Unlock(): the lock stays held until function exit.
			return held, false
		}
		w.expr(st.Call.Fun, held)
		for _, a := range st.Call.Args {
			w.expr(a, held)
		}
		return held, false
	case *ast.GoStmt:
		if w.hooks.goCall != nil {
			w.hooks.goCall(st.Call, held)
		}
		w.expr(st.Call.Fun, held)
		for _, a := range st.Call.Args {
			w.expr(a, held)
		}
		return held, false
	case *ast.AssignStmt:
		for _, r := range st.Rhs {
			w.expr(r, held)
		}
		for _, l := range st.Lhs {
			w.expr(l, held)
		}
		return held, false
	case *ast.IncDecStmt:
		w.expr(st.X, held)
		return held, false
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, held)
					}
				}
			}
		}
		return held, false
	case *ast.SendStmt:
		w.expr(st.Chan, held)
		w.expr(st.Value, held)
		return held, false
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			w.expr(r, held)
		}
		return held, true
	case *ast.BranchStmt:
		// break/continue/goto leave the straight-line path; excluding them
		// from merges under-approximates loop exits, which is the safe
		// direction for "is the lock held here".
		return held, true
	case *ast.BlockStmt:
		return w.stmts(st.List, held)
	case *ast.LabeledStmt:
		return w.stmt(st.Stmt, held)
	case *ast.IfStmt:
		if st.Init != nil {
			held, _ = w.stmt(st.Init, held)
		}
		w.expr(st.Cond, held)
		thenHeld, thenTerm := w.stmts(st.Body.List, held.clone())
		elseHeld, elseTerm := held.clone(), false
		if st.Else != nil {
			elseHeld, elseTerm = w.stmt(st.Else, elseHeld)
		}
		switch {
		case thenTerm && elseTerm:
			return held, st.Else != nil
		case thenTerm:
			return elseHeld, false
		case elseTerm:
			return thenHeld, false
		default:
			return intersectLocks(thenHeld, elseHeld), false
		}
	case *ast.ForStmt:
		if st.Init != nil {
			held, _ = w.stmt(st.Init, held)
		}
		if st.Cond != nil {
			w.expr(st.Cond, held)
		}
		return w.loopBody(st.Body, st.Post, held), false
	case *ast.RangeStmt:
		w.expr(st.X, held)
		w.expr(st.Key, held)
		w.expr(st.Value, held)
		return w.loopBody(st.Body, nil, held), false
	case *ast.SwitchStmt:
		if st.Init != nil {
			held, _ = w.stmt(st.Init, held)
		}
		w.expr(st.Tag, held)
		return w.caseBodies(st.Body, held)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			held, _ = w.stmt(st.Init, held)
		}
		if st.Assign != nil {
			held, _ = w.stmt(st.Assign, held)
		}
		return w.caseBodies(st.Body, held)
	case *ast.SelectStmt:
		return w.caseBodies(st.Body, held)
	}
	return held, false
}

// loopBody walks a loop body twice: the second pass starts from the state
// the first left behind, so a lock surviving an iteration (deferred unlock
// inside the loop) meets its own re-acquisition. The result merges with the
// pre-loop state because the body may run zero times.
func (w *stmtWalker) loopBody(body *ast.BlockStmt, post ast.Stmt, held lockSet) lockSet {
	h1, t1 := w.stmts(body.List, held.clone())
	if t1 {
		return held
	}
	if post != nil {
		h1, _ = w.stmt(post, h1)
	}
	h2, t2 := w.stmts(body.List, h1.clone())
	if !t2 && post != nil {
		w.stmt(post, h2)
	}
	return intersectLocks(held, h1)
}

// caseBodies walks each case of a switch/select from the same pre-state and
// intersects the survivors; a missing default keeps the pre-state as one of
// the merged paths.
func (w *stmtWalker) caseBodies(body *ast.BlockStmt, held lockSet) (lockSet, bool) {
	var results []lockSet
	hasDefault := false
	allTerm := true
	sawCase := false
	for _, c := range body.List {
		var stmts []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			for _, x := range cc.List {
				w.expr(x, held)
			}
			if cc.List == nil {
				hasDefault = true
			}
			stmts = cc.Body
		case *ast.CommClause:
			if cc.Comm != nil {
				held, _ = w.stmt(cc.Comm, held.clone())
			} else {
				hasDefault = true
			}
			stmts = cc.Body
		default:
			continue
		}
		sawCase = true
		h, term := w.stmts(stmts, held.clone())
		if !term {
			allTerm = false
			results = append(results, h)
		}
	}
	if !hasDefault {
		results = append(results, held)
		allTerm = false
	}
	if len(results) == 0 {
		return held, sawCase && allTerm
	}
	out := results[0]
	for _, r := range results[1:] {
		out = intersectLocks(out, r)
	}
	return out, false
}

// expr visits an expression with the current lock state, firing access,
// call, close, and funcLit hooks. Function literals are not descended into.
func (w *stmtWalker) expr(e ast.Expr, held lockSet) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if w.hooks.funcLit != nil {
				w.hooks.funcLit(x, held)
			}
			return false
		case *ast.CallExpr:
			if id, ok := unparen(x.Fun).(*ast.Ident); ok && id.Name == "close" {
				if _, isBuiltin := w.engine.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					if w.hooks.closeCh != nil {
						w.hooks.closeCh(x, held)
					}
					return true
				}
			}
			if w.hooks.call != nil {
				w.hooks.call(x, held)
			}
		case *ast.SelectorExpr:
			if w.hooks.access != nil {
				w.hooks.access(x, held, w.engine.writes[x])
			}
		}
		return true
	})
}

// lockOp recognizes x.mu.Lock(), mu.RLock(), x.Lock() (embedded mutex) and
// their Try/Unlock variants, returning the lock's instance key.
func (w *stmtWalker) lockOp(call *ast.CallExpr) (heldKey, lockMode, bool, bool) {
	none := heldKey{}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return none, 0, false, false
	}
	var mode lockMode
	var acquire bool
	switch sel.Sel.Name {
	case "Lock", "TryLock":
		mode, acquire = modeWrite, true
	case "RLock", "TryRLock":
		mode, acquire = modeRead, true
	case "Unlock":
		mode, acquire = modeWrite, false
	case "RUnlock":
		mode, acquire = modeRead, false
	default:
		return none, 0, false, false
	}
	info := w.engine.pass.TypesInfo
	switch x := unparen(sel.X).(type) {
	case *ast.SelectorExpr: // base.mu.Lock()
		s, ok := info.Selections[x]
		if !ok || s.Kind() != types.FieldVal {
			return none, 0, false, false
		}
		f, ok := s.Obj().(*types.Var)
		if !ok || !isSyncMutex(f.Type()) {
			return none, 0, false, false
		}
		base := firstIdent(x.X)
		if base == nil {
			return none, 0, false, false
		}
		obj := info.ObjectOf(base)
		if obj == nil {
			return none, 0, false, false
		}
		return heldKey{base: obj, field: f}, mode, acquire, true
	case *ast.Ident: // mu.Lock() or x.Lock() via an embedded mutex
		obj := info.ObjectOf(x)
		v, ok := obj.(*types.Var)
		if !ok {
			return none, 0, false, false
		}
		if isSyncMutex(v.Type()) {
			return heldKey{base: obj}, mode, acquire, true
		}
		if f := embeddedMutexField(v.Type()); f != nil {
			return heldKey{base: obj, field: f}, mode, acquire, true
		}
	}
	return none, 0, false, false
}

// embeddedMutexField finds an embedded sync.Mutex/RWMutex field of t (after
// pointer indirection), or nil.
func embeddedMutexField(t types.Type) *types.Var {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Embedded() && isSyncMutex(f.Type()) {
			return f
		}
	}
	return nil
}

// isSyncMutex reports whether t is sync.Mutex, sync.RWMutex, or a pointer to
// either.
func isSyncMutex(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// isTerminalCall reports expression statements that never return: panic and
// os.Exit end the path like a return does.
func isTerminalCall(pass *Pass, e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
		return isBuiltin
	}
	if pkg, name := calleePackage(pass, call); pkg == "os" && name == "Exit" {
		return true
	}
	return false
}
