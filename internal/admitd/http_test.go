package admitd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"rtoffload/internal/core"
	"rtoffload/internal/task"
)

// do runs one request through the service handler and decodes the
// JSON response into out (when non-nil).
func do(t *testing.T, h http.Handler, method, path string, body any, wantStatus int, out any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("%s %s: status %d (want %d), body %s", method, path, rec.Code, wantStatus, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s %s: content type %q", method, path, ct)
	}
	if out != nil {
		if err := json.NewDecoder(rec.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, path, err)
		}
	}
}

func TestHandlerLifecycle(t *testing.T) {
	s := New(core.Options{Solver: core.SolverDP, ExactUpgrade: true})
	h := s.Handler()

	do(t, h, "GET", "/healthz", nil, http.StatusOK, nil)

	var view DecisionView
	do(t, h, "POST", "/v1/tenants/edge/tasks", wireTask(1), http.StatusCreated, &view)
	if view.Tenant != "edge" || view.Tasks != 1 || view.Seq != 1 {
		t.Fatalf("admit view %+v", view)
	}
	if len(view.Choices) != 1 || view.Choices[0].TaskID != 1 {
		t.Fatalf("admit choices %+v", view.Choices)
	}

	// The offloaded choice carries its budget on the wire.
	if view.Choices[0].Offload && view.Choices[0].Budget != ms(20) {
		t.Fatalf("budget %v", view.Choices[0].Budget)
	}

	do(t, h, "POST", "/v1/tenants/edge/tasks", wireTask(2), http.StatusCreated, nil)

	var tl struct {
		Tenants []string `json:"tenants"`
	}
	do(t, h, "GET", "/v1/tenants", nil, http.StatusOK, &tl)
	if len(tl.Tenants) != 1 || tl.Tenants[0] != "edge" {
		t.Fatalf("tenant list %v", tl.Tenants)
	}

	up := wireTask(2)
	up.LocalBenefit = 1.7
	do(t, h, "PUT", "/v1/tenants/edge/tasks/2", up, http.StatusOK, &view)
	if view.Seq != 3 || view.Tasks != 2 {
		t.Fatalf("update view %+v", view)
	}

	do(t, h, "GET", "/v1/tenants/edge/decision", nil, http.StatusOK, &view)
	if view.Tasks != 2 || view.Theorem3 == "" {
		t.Fatalf("decision view %+v", view)
	}

	do(t, h, "DELETE", "/v1/tenants/edge/tasks/1", nil, http.StatusOK, &view)
	if view.Tasks != 1 {
		t.Fatalf("evict view %+v", view)
	}
	do(t, h, "DELETE", "/v1/tenants/edge/tasks/2", nil, http.StatusOK, &view)
	if view.Tasks != 0 {
		t.Fatalf("final evict view %+v", view)
	}
	// Tenant dissolved: decision now 404s.
	do(t, h, "GET", "/v1/tenants/edge/decision", nil, http.StatusNotFound, nil)
}

func TestHandlerErrors(t *testing.T) {
	s := New(core.Options{Solver: core.SolverDP})
	h := s.Handler()

	// Malformed body.
	req := httptest.NewRequest("POST", "/v1/tenants/edge/tasks", strings.NewReader("{"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed body: %d", rec.Code)
	}

	// Unknown JSON field.
	req = httptest.NewRequest("POST", "/v1/tenants/edge/tasks", strings.NewReader(`{"id":1,"bogus":3}`))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown field: %d", rec.Code)
	}

	// Invalid task (zero period).
	do(t, h, "POST", "/v1/tenants/edge/tasks", &task.Task{ID: 1}, http.StatusBadRequest, nil)

	// Valid admissions to set the stage.
	do(t, h, "POST", "/v1/tenants/edge/tasks", heavyTask(1, 990), http.StatusCreated, nil)

	// Duplicate ID conflicts.
	do(t, h, "POST", "/v1/tenants/edge/tasks", heavyTask(1, 100), http.StatusConflict, nil)

	// Infeasible grown system conflicts.
	do(t, h, "POST", "/v1/tenants/edge/tasks", heavyTask(2, 500), http.StatusConflict, nil)

	// Unknown tenant / unknown task ID.
	do(t, h, "PUT", "/v1/tenants/cloud/tasks/1", heavyTask(1, 10), http.StatusNotFound, nil)
	do(t, h, "PUT", "/v1/tenants/edge/tasks/9", heavyTask(9, 10), http.StatusNotFound, nil)
	do(t, h, "DELETE", "/v1/tenants/cloud/tasks/1", nil, http.StatusNotFound, nil)
	do(t, h, "DELETE", "/v1/tenants/edge/tasks/9", nil, http.StatusNotFound, nil)
	do(t, h, "GET", "/v1/tenants/cloud/decision", nil, http.StatusNotFound, nil)

	// Path/body ID mismatch and non-numeric ID.
	do(t, h, "PUT", "/v1/tenants/edge/tasks/2", heavyTask(1, 10), http.StatusBadRequest, nil)
	do(t, h, "PUT", "/v1/tenants/edge/tasks/abc", heavyTask(1, 10), http.StatusBadRequest, nil)
	do(t, h, "DELETE", "/v1/tenants/edge/tasks/abc", nil, http.StatusBadRequest, nil)

	// An invalid update (WCET past the deadline) is a bad request — and
	// must keep prior state.
	do(t, h, "PUT", "/v1/tenants/edge/tasks/1", heavyTask(1, 1001), http.StatusBadRequest, nil)
	var view DecisionView
	do(t, h, "GET", "/v1/tenants/edge/decision", nil, http.StatusOK, &view)
	if view.Tasks != 1 || view.Seq != 1 {
		t.Fatalf("state after rejected update: %+v", view)
	}

	// A body must hold exactly one JSON value: trailing bytes after an
	// admissible task are a bad request, and must keep prior state.
	body := func(tk *task.Task) string {
		b, err := json.Marshal(tk)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, tc := range []struct{ method, path, body string }{
		{"POST", "/v1/tenants/edge/tasks", body(heavyTask(2, 5)) + " junk"},
		{"POST", "/v1/tenants/edge/tasks", body(heavyTask(2, 5)) + body(heavyTask(3, 5))},
		{"PUT", "/v1/tenants/edge/tasks/1", body(heavyTask(1, 10)) + "\n{}"},
	} {
		req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s %s with trailing data: %d", tc.method, tc.body, rec.Code)
		}
	}
	var after DecisionView
	do(t, h, "GET", "/v1/tenants/edge/decision", nil, http.StatusOK, &after)
	if !reflect.DeepEqual(after, view) {
		t.Fatalf("state after trailing-data bodies: %+v, want %+v", after, view)
	}

	// A body over maxTaskBody is 413 however the task sits in it, and
	// must keep prior state: the padding is whitespace, so without the
	// bound each body would decode to one admissible task.
	pad := strings.Repeat(" ", maxTaskBody)
	for _, tc := range []struct{ method, path, body string }{
		{"POST", "/v1/tenants/edge/tasks", pad + body(heavyTask(2, 5))},
		{"POST", "/v1/tenants/edge/tasks", body(heavyTask(2, 5)) + pad},
		{"PUT", "/v1/tenants/edge/tasks/1", body(heavyTask(1, 10)) + pad},
	} {
		req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s %s with a %d-byte body: %d", tc.method, tc.path, len(tc.body), rec.Code)
		}
	}
	do(t, h, "GET", "/v1/tenants/edge/decision", nil, http.StatusOK, &after)
	if !reflect.DeepEqual(after, view) {
		t.Fatalf("state after over-limit bodies: %+v, want %+v", after, view)
	}
}
