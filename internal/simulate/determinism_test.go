package simulate

import (
	"strings"
	"testing"

	"fbcache/internal/policy"
	"fbcache/internal/policy/classic"
	"fbcache/internal/policy/landlord"
	"fbcache/internal/workload"
)

// evictionTrace drives every job of w through a fresh policy from mk and
// returns the per-job load/eviction decisions as one string. Capturing the
// full sequence (not just aggregate ratios) is the point: map-iteration
// nondeterminism typically preserves totals while reordering victims.
func evictionTrace(t *testing.T, w *workload.Workload, mk policy.Factory) string {
	t.Helper()
	p := mk(w.Spec.CacheSize, w.Catalog.SizeFunc())
	var sb strings.Builder
	for _, j := range w.Jobs {
		res := p.Admit(w.Requests[j])
		sb.WriteString("L")
		sb.WriteString(res.Loaded.Key())
		sb.WriteString("/E")
		sb.WriteString(res.Evicted.Key())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestEvictionSequenceDeterministic is the dynamic half of the map-order
// check fbvet's ndtaint analyzer makes statically: two runs of the same
// policy over the same workload must make bit-for-bit identical eviction and
// load decisions at every single job.
func TestEvictionSequenceDeterministic(t *testing.T) {
	w := smallWorkload(t, workload.Zipf, 600)
	for _, tc := range []struct {
		name string
		mk   policy.Factory
	}{
		{"optfilebundle", optFactory()},
		{"landlord", landlord.Factory()},
		{"gdsf", classic.GDSFFactory()},
		{"lru", classic.LRUFactory()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := evictionTrace(t, w, tc.mk)
			b := evictionTrace(t, w, tc.mk)
			if a == b {
				return
			}
			// Report the first diverging job, not two megabyte blobs.
			la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
			for i := range la {
				if i >= len(lb) || la[i] != lb[i] {
					t.Fatalf("eviction sequences diverge at job %d:\n  run1: %s\n  run2: %s", i, la[i], lb[i])
				}
			}
			t.Fatal("eviction sequences differ in length")
		})
	}
}
