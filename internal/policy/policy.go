// Package policy defines the replacement-policy abstraction shared by the
// simulator, the SRM service and the experiment harness. The paper's
// OptFileBundle (*core.OptFileBundle) satisfies it directly; concrete
// baselines live in the landlord and classic subpackages.
//
// Every policy is bundle-aware in the sense required by the paper: Admit
// receives a whole file-bundle, a request-hit needs every file resident, and
// a policy never evicts files of the request it is currently admitting.
package policy

import (
	"fbcache/internal/bundle"
	"fbcache/internal/cache"
	"fbcache/internal/core"
)

// Result reports the effect of admitting one request. It is core.Result,
// so *core.OptFileBundle satisfies Policy as it stands.
type Result = core.Result

// Policy is a bundle-aware cache replacement policy bound to its own cache.
type Policy interface {
	// Name identifies the policy in experiment output (e.g. "landlord").
	Name() string
	// Admit processes one job request, performing any evictions and loads.
	Admit(b bundle.Bundle) Result
	// Cache exposes the policy's cache for inspection.
	Cache() *cache.Cache
}

// Factory builds a fresh policy instance over a new cache — experiments
// construct one instance per (policy, run) pair so state never leaks between
// sweep points.
type Factory func(capacity bundle.Size, sizeOf bundle.SizeFunc) Policy

// WrapOptFileBundle returns p: *core.OptFileBundle is a Policy. It is kept
// only because the bench module calls it; pass p directly elsewhere.
func WrapOptFileBundle(p *core.OptFileBundle) Policy { return p }

// OptFileBundleFactory returns a Factory producing OptFileBundle policies
// with the given options.
func OptFileBundleFactory(opts core.Options) Factory {
	return func(capacity bundle.Size, sizeOf bundle.SizeFunc) Policy {
		return core.New(capacity, sizeOf, opts)
	}
}
