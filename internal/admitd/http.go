package admitd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"rtoffload/internal/core"
	"rtoffload/internal/task"
)

// Handler exposes the service over HTTP/JSON:
//
//	POST   /v1/tenants/{tenant}/tasks       admit (body: task JSON)
//	PUT    /v1/tenants/{tenant}/tasks/{id}  update (body: task JSON)
//	DELETE /v1/tenants/{tenant}/tasks/{id}  evict
//	GET    /v1/tenants/{tenant}/decision    current decision
//	GET    /v1/tenants                      tenant listing
//	GET    /healthz                         liveness
//
// Every mutation answers with the tenant's fresh DecisionView, so a
// client streaming churn always knows the configuration its request
// produced. Rejections map schedulability conflicts to 409, unknown
// tenants or task IDs to 404, bodies over maxTaskBody to 413, and
// malformed requests to 400.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string][]string{"tenants": s.Tenants()})
	})
	mux.HandleFunc("POST /v1/tenants/{tenant}/tasks", s.handleAdmit)
	mux.HandleFunc("PUT /v1/tenants/{tenant}/tasks/{id}", s.handleUpdate)
	mux.HandleFunc("DELETE /v1/tenants/{tenant}/tasks/{id}", s.handleEvict)
	mux.HandleFunc("GET /v1/tenants/{tenant}/decision", s.handleDecision)
	return mux
}

func (s *Service) handleAdmit(w http.ResponseWriter, r *http.Request) {
	t, ok := decodeTask(w, r)
	if !ok {
		return
	}
	view, err := s.Admit(r.PathValue("tenant"), t)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, view)
}

func (s *Service) handleUpdate(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	t, ok := decodeTask(w, r)
	if !ok {
		return
	}
	if t.ID != id {
		writeJSON(w, http.StatusBadRequest, errorBody(
			fmt.Errorf("admitd: path task %d but body task %d", id, t.ID)))
		return
	}
	view, err := s.Update(r.PathValue("tenant"), t)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Service) handleEvict(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	view, err := s.Evict(r.PathValue("tenant"), id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Service) handleDecision(w http.ResponseWriter, r *http.Request) {
	view, err := s.Decision(r.PathValue("tenant"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// maxTaskBody bounds a task request body. A task is a few hundred
// bytes even with many offloading levels; the bound stops a client
// from making the service buffer an arbitrarily large body before
// validation rejects it.
const maxTaskBody = 1 << 20

// decodeTask parses the request body as exactly one task; it rejects
// unknown fields so schema typos fail loudly instead of admitting a
// default, and any bytes after the task so a body holding two tasks (or
// a task and garbage) is never admitted as its first value. A body
// longer than maxTaskBody is answered 413, any other decode error 400.
func decodeTask(w http.ResponseWriter, r *http.Request) (*task.Task, bool) {
	var t task.Task
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxTaskBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(&t)
	if err == nil {
		switch _, tail := dec.Token(); {
		case tail == io.EOF:
		case errors.As(tail, new(*http.MaxBytesError)):
			err = tail
		default:
			err = errors.New("trailing data after the task")
		}
	}
	if err != nil {
		status := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, errorBody(fmt.Errorf("admitd: decoding task: %w", err)))
		return nil, false
	}
	return &t, true
}

// pathID parses the {id} path segment.
func pathID(w http.ResponseWriter, r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody(fmt.Errorf("admitd: task id %q: %w", r.PathValue("id"), err)))
		return 0, false
	}
	return id, true
}

// writeError maps service errors to transport status codes: missing
// tenants and task IDs are 404, schedulability conflicts (infeasible
// grown system, duplicate admission, failed shrink re-decision) are
// 409, anything else — validation failures foremost — is 400.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrUnknownTenant), errors.Is(err, core.ErrNotAdmitted):
		status = http.StatusNotFound
	case errors.Is(err, core.ErrInfeasible), errors.Is(err, core.ErrAlreadyAdmitted):
		status = http.StatusConflict
	}
	writeJSON(w, status, errorBody(err))
}

func errorBody(err error) map[string]string {
	return map[string]string{"error": err.Error()}
}

// writeJSON renders one response. An encode failure at this point
// means the client hung up mid-body; the status line is already out,
// so there is nothing useful left to send.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
