package collector

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package if any test leaves goroutines behind, as
// internal/city's does: every server, per-connection serve
// loop, deadline watcher and redialing client a test starts must be gone
// once its Stop or Close has returned. A -fuzz run is not checked: the
// fuzzing engine leaves its own signal watcher running.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 && flag.Lookup("test.fuzz").Value.String() == "" {
		// Connection teardown finishes asynchronously; let it settle.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			buf := make([]byte, 1<<16)
			fmt.Fprintf(os.Stderr, "collector: %d goroutines before the tests, %d after:\n%s\n",
				before, after, buf[:runtime.Stack(buf, true)])
			code = 1
		}
	}
	os.Exit(code)
}
