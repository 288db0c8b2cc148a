package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rtoffload/internal/admitd"
	"rtoffload/internal/core"
	"rtoffload/internal/task"
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
// solver, malformed or invalid fleet specs and flags the command does
// not define are rejected before the service starts.
func TestRunRejectsBadFlags(t *testing.T) {
	if _, _, err := configure([]string{"-solver", "simplex"}); err == nil ||
		!strings.Contains(err.Error(), "want dp, heu, bnb, or core") {
		t.Errorf("unknown solver: got error %v", err)
	}
	for _, spec := range []string{"edge:scale=abc", "edge:cap=1/0", "x:rel=2", "edge:group=nowhere"} {
		if _, _, err := configure([]string{"-fleet", spec}); err == nil {
			t.Errorf("fleet spec %q accepted", spec)
		}
	}
	if _, _, err := configure([]string{"-bench"}); err == nil {
		t.Error("undefined flag -bench accepted")
	}
}

// TestServeChurn drives a short deterministic admitd.Stream churn over
// HTTP through the handler the flags configure. Every request must
// answer its documented status, and every committed decision view must
// be byte-identical to a serial replay of the churn through a bare
// core.Admission with the options the flags selected.
func TestServeChurn(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		solver core.Solver
	}{
		{nil, core.SolverCore},
		{[]string{"-solver", "dp"}, core.SolverDP},
		{[]string{"-solver", "core", "-fleet", "edge:cap=1/4;mid;cloud"}, core.SolverCore},
	} {
		t.Run(strings.Join(append([]string{"flags"}, tc.args...), " "), func(t *testing.T) {
			srv, opts, err := configure(tc.args)
			if err != nil {
				t.Fatal(err)
			}
			if opts.Solver != tc.solver || !opts.ExactUpgrade {
				t.Fatalf("options %+v, want solver %v with the exact upgrade", opts, tc.solver)
			}
			ts := httptest.NewServer(srv.Handler)
			defer ts.Close()

			const tenant, ops = "edge", 40
			st := admitd.NewStream(7, 6)
			adm := core.NewAdmission(opts)
			var seq uint64
			committed, rejected, routed := 0, 0, 0
			for i := 0; i < ops; i++ {
				o := st.Next()
				method, path, want := "POST", "/v1/tenants/"+tenant+"/tasks", http.StatusCreated
				var err error
				switch o.Kind {
				case admitd.OpAdmit:
					err = adm.Add(o.Task)
				case admitd.OpUpdate:
					method, path, want = "PUT", fmt.Sprintf("%s/%d", path, o.ID), http.StatusOK
					err = adm.Update(o.Task)
				default:
					method, path, want = "DELETE", fmt.Sprintf("%s/%d", path, o.ID), http.StatusOK
					_, err = adm.Remove(o.ID)
				}
				if err != nil {
					want = http.StatusConflict
				}
				status, body := request(t, ts.URL+path, method, o.Task)
				if status != want {
					t.Fatalf("op %d (%s %s): status %d, want %d (replay error %v): %s",
						i, method, path, status, want, err, body)
				}
				st.Commit(o, err == nil)
				if err != nil {
					rejected++
					continue
				}
				committed++
				seq++
				replay := admitd.ViewOf(tenant, seq, adm.Decision(), adm.Len())
				view, err := json.Marshal(replay)
				if err != nil {
					t.Fatal(err)
				}
				if got := bytes.TrimSpace(body); !bytes.Equal(got, view) {
					t.Fatalf("op %d: view diverges from serial replay\n got %s\nwant %s", i, got, view)
				}
				for _, c := range replay.Choices {
					if c.Server != "" {
						routed++
					}
				}
			}
			t.Logf("%d committed, %d rejected, %d fleet-routed choices", committed, rejected, routed)
			if committed < ops/2 {
				t.Fatalf("only %d of %d operations committed", committed, ops)
			}
			if (routed > 0) != !opts.Fleet.Empty() {
				t.Fatalf("%d fleet-routed choices with fleet %v", routed, opts.Fleet)
			}
		})
	}
}

// request sends one churn request (with the task as its JSON body when
// non-nil) and returns the status and body.
func request(t *testing.T, url, method string, tk *task.Task) (int, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if tk != nil {
		if err := json.NewEncoder(&buf).Encode(tk); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}
