package main

import (
	"bytes"
	"net/http"
	"strings"
	"testing"
)

// TestServerTimeouts reads the serve-mode server's fields: the header
// and idle timeouts are set, and the write timeout stays unset while
// analysis time is unbounded.
func TestServerTimeouts(t *testing.T) {
	h := http.NotFoundHandler()
	s := newServer("127.0.0.1:0", h)
	if s.Addr != "127.0.0.1:0" || s.Handler == nil {
		t.Fatalf("server at %q with handler %v", s.Addr, s.Handler)
	}
	if s.ReadHeaderTimeout != readHeaderTimeout || s.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout %v, want %v", s.ReadHeaderTimeout, readHeaderTimeout)
	}
	if s.IdleTimeout != idleTimeout || s.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout %v, want %v", s.IdleTimeout, idleTimeout)
	}
	if s.WriteTimeout != 0 || s.ReadTimeout != 0 {
		t.Errorf("WriteTimeout %v, ReadTimeout %v: want both unset", s.WriteTimeout, s.ReadTimeout)
	}
}

// TestRunRejectsBadFlags pins the argument validation: an unknown
// solver and malformed or invalid fleet specs are rejected before the
// service starts.
func TestRunRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	err := Run(&buf, []string{"-bench", "-solver", "simplex"})
	if err == nil || !strings.Contains(err.Error(), "want dp, heu, bnb, or core") {
		t.Errorf("unknown solver: got error %v", err)
	}
	for _, spec := range []string{"edge:scale=abc", "edge:cap=1/0", "x:rel=2", "edge:group=nowhere"} {
		if err := Run(&buf, []string{"-bench", "-fleet", spec}); err == nil {
			t.Errorf("fleet spec %q accepted", spec)
		}
	}
	if buf.Len() != 0 {
		t.Errorf("rejected runs printed output:\n%s", buf.String())
	}
}

// runBench runs the load benchmark with args and returns its report,
// checking the solver header and the committed-operations line.
func runBench(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Run(&buf, append([]string{"-bench", "-tenants", "2", "-ops", "20"}, args...)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	header, _, _ := strings.Cut(out, "\n")
	if !strings.HasPrefix(header, "solver") || !strings.HasSuffix(header, "core (exact=true)") {
		t.Fatalf("solver header %q, want a solver line ending in %q", header, "core (exact=true)")
	}
	for _, field := range []string{"committed", "rejected", "live tasks", "ops/sec"} {
		if !strings.Contains(out, "\n"+field) {
			t.Fatalf("report lacks %q:\n%s", field, out)
		}
	}
	if strings.Contains(out, "committed        0 ") {
		t.Fatalf("benchmark committed nothing:\n%s", out)
	}
	return out
}

// TestRunBench drives the single-server benchmark end to end.
func TestRunBench(t *testing.T) {
	runBench(t)
}

// TestRunBenchFleet drives the benchmark over a fleet whose capped
// edge server makes every exact upgrade pass the capacity guard.
func TestRunBenchFleet(t *testing.T) {
	runBench(t, "-fleet", "edge:cap=1/4;mid;cloud")
}
