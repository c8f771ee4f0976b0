package span

import (
	"testing"

	"fbcache/internal/leakcheck"
)

// TestMain fails the run when a test leaves goroutines behind.
func TestMain(m *testing.M) { leakcheck.Main(m) }
