// Package leakcheck is the goroutine-leak gate of the packages that serve
// the §1.1 SRM concurrently (srm, store, jobs and obs/span): their TestMain
// runs the tests through Main, which fails the run when goroutines the tests
// started outlive them. It needs nothing beyond the standard library: it
// polls runtime.NumGoroutine back to its count before the tests and prints
// every goroutine's stack when the count does not come back.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// settle bounds how long Main waits for the goroutines of stopped servers,
// managers and timers to exit.
const settle = 5 * time.Second

// Main runs m and exits with its code, or with 1 when the tests passed but
// left more goroutines running than there were before them.
func Main(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 && !settled(base) {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines outlive the tests, %d ran before them:\n%s\n",
			runtime.NumGoroutine(), base, buf)
		code = 1
	}
	os.Exit(code)
}

// settled polls until at most base goroutines run, and reports whether that
// happened within settle.
func settled(base int) bool {
	deadline := time.Now().Add(settle)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
	return true
}
