package analyzers

// Contract pins one hot-path function to the perf directives it must carry.
// The manifest exists so that DELETING an annotation is itself a finding: a
// refactor that drops //fbvet:noescape from OptCacheSelect's scan loop does
// not silently shrink the gate — the missing annotation is reported at the
// function's declaration.
type Contract struct {
	// Func is the function in compiler-diagnostic rendering (F, T.F, (*T).F).
	Func string
	// Directives lists the required annotations (names of contract
	// analyzers).
	Directives []string
}

// manifest maps import paths to their required contracts. Keep in sync with
// DESIGN.md §11, which documents why each function carries its contracts.
// Tests mutate this map (with cleanup) to exercise enforcement.
var manifest = map[string][]Contract{
	// The OptCacheSelect admission round (paper §3 step 2/3), now served by
	// the incremental ranking heap (DESIGN.md §13): the sift/repair
	// operations are the per-admission inner loop and must stay
	// allocation-free and bounds-check-free at 0 allocs/op steady state.
	"fbcache/internal/core": {
		{Func: "better", Directives: []string{"noescape", "inline"}},
		{Func: "(*rankHeap).push", Directives: []string{"noescape", "nobce"}},
		{Func: "(*rankHeap).popTop", Directives: []string{"noescape", "nobce"}},
		{Func: "(*rankHeap).fix", Directives: []string{"noescape", "nobce"}},
		{Func: "(*rankHeap).siftUp", Directives: []string{"noescape", "nobce"}},
		{Func: "(*rankHeap).siftDown", Directives: []string{"noescape", "nobce"}},
		{Func: "(*fileSet).has", Directives: []string{"noescape", "inline"}},
		{Func: "(*fileSet).appendMembers", Directives: []string{"noescape", "nobce"}},
		{Func: "(*resortState).chargedSizeSkip", Directives: []string{"noescape", "nobce"}},
		{Func: "(*resortState).repair", Directives: []string{"noescape", "nobce"}},
		{Func: "rankOf", Directives: []string{"noescape", "inline"}},
		{Func: "chargedSize", Directives: []string{"noescape", "inline", "nobce"}},
		{Func: "(*OptFileBundle).RelativeValue", Directives: []string{"noescape", "nobce"}},
		{Func: "hasBit", Directives: []string{"noescape", "inline"}},
		{Func: "(*residentSet).scan", Directives: []string{"noescape"}},
		{Func: "(*resortState).denomSkip", Directives: []string{"noescape", "nobce"}},
		{Func: "(*residentSet).join", Directives: []string{"noescape", "nobce"}},
		{Func: "(*residentSet).ordered", Directives: []string{"noescape"}},
	},
	// Cache accessors sit inside every admission and eviction decision;
	// they must stay cheap enough to inline and must not force their
	// receiver or arguments onto the heap.
	"fbcache/internal/cache": {
		{Func: "(*Cache).Capacity", Directives: []string{"noescape", "inline"}},
		{Func: "(*Cache).Used", Directives: []string{"noescape", "inline"}},
		{Func: "(*Cache).Free", Directives: []string{"noescape", "inline"}},
		{Func: "(*Cache).Len", Directives: []string{"noescape", "inline"}},
		{Func: "(*Cache).Contains", Directives: []string{"noescape", "inline"}},
		{Func: "(*Cache).SizeOf", Directives: []string{"noescape", "inline"}},
		{Func: "(*Cache).Supports", Directives: []string{"noescape", "inline", "nobce"}},
		{Func: "(*Cache).Pinned", Directives: []string{"noescape", "inline"}},
		{Func: "(*Cache).ResidentAppend", Directives: []string{"noescape", "nobce"}},
	},
	// The replica catalog's per-candidate reads in every replan epoch: the
	// local-copy test and the one ranking each candidate gets (DESIGN.md
	// §12.1).
	"fbcache/internal/grid": {
		{Func: "(*Replicas).Has", Directives: []string{"noescape", "inline"}},
		{Func: "(*Replicas).AppendRankedSources", Directives: []string{"noescape"}},
	},
	// The replan epoch's heat read walks the predictor's dense table into a
	// reused buffer (DESIGN.md §12.1).
	"fbcache/internal/replicate": {
		{Func: "(*Predictor).appendSnapshot", Directives: []string{"noescape", "nobce"}},
	},
	// Landlord's credit read is on the ranking path of every admission.
	"fbcache/internal/policy/landlord": {
		{Func: "(*Landlord).Credit", Directives: []string{"noescape", "inline"}},
	},
	// The wire codec runs on every srmd request and response: the string
	// escape of each encoded name and token, and the decoder's walk of each
	// string value, must not put their arguments on the heap (DESIGN.md
	// §11).
	"fbcache/internal/srm": {
		{Func: "appendString", Directives: []string{"noescape"}},
		{Func: "(*scanner).text", Directives: []string{"noescape"}},
	},
	// The event loop's queue operations run once per simulated event; the
	// typed heap exists so they stay boxing-free and bounds-check-free.
	"fbcache/internal/simulate": {
		{Func: "(*eventQueue).push", Directives: []string{"noescape", "nobce"}},
		{Func: "(*eventQueue).pop", Directives: []string{"noescape", "nobce"}},
	},
}
