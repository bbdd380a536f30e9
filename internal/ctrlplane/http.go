package ctrlplane

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// RESTHandler exposes the control plane as REST resources, mounted by
// the opserver next to the read-only introspection pages. All mutating
// verbs funnel into Manager methods, so the REST surface inherits the
// pending-operation durability for free: the HTTP response is written
// only after the terminal transaction is fsynced.
//
//	GET    /tenants              list tenants
//	POST   /tenants              create a tenant          {"name": "..."}
//	GET    /tenants/{name}       fetch one tenant
//	DELETE /tenants/{name}       delete a tenant (and its quota)
//	GET    /quotas               list quotas
//	GET    /quotas/{tenant}      fetch one quota
//	PUT    /quotas/{tenant}      set a quota   {"max_sessions": n, "host_bytes": n}
//	GET    /devices              list device records
//	POST   /devices/{id}/drain   evacuate + remove a device from scheduling
//	POST   /devices/{id}/readmit return a drained device to scheduling
//	GET    /slos                 list SLO records
//	GET    /slos/{tenant}        fetch one tenant's SLO
//	PUT    /slos/{tenant}        declare objectives {"launch_p99_ns": n, "max_error_ratio": f}
//	DELETE /slos/{tenant}        remove a tenant's SLO
//	GET    /ops                  list pending/stuck operations
//	POST   /ops/cleanup          force-roll-back every listed operation
//	POST   /ops/{id}/cleanup     force-roll-back one operation
//	GET    /events               SSE stream of store commits and SLO burn events
func RESTHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /tenants", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, orEmpty(m.Tenants()))
	})
	mux.HandleFunc("POST /tenants", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Name string `json:"name"`
		}
		if !decodeBody(w, r, &req) {
			return
		}
		t, err := m.CreateTenant(req.Name)
		if err != nil {
			writeErr(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusCreated, t)
	})
	mux.HandleFunc("GET /tenants/{name}", func(w http.ResponseWriter, r *http.Request) {
		t, ok := m.GetTenant(r.PathValue("name"))
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("tenant not found"))
			return
		}
		writeJSON(w, http.StatusOK, t)
	})
	mux.HandleFunc("DELETE /tenants/{name}", func(w http.ResponseWriter, r *http.Request) {
		if err := m.DeleteTenant(r.PathValue("name")); err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("GET /quotas", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, orEmpty(m.Quotas()))
	})
	mux.HandleFunc("GET /quotas/{tenant}", func(w http.ResponseWriter, r *http.Request) {
		q, ok := m.GetQuota(r.PathValue("tenant"))
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("quota not found"))
			return
		}
		writeJSON(w, http.StatusOK, q)
	})
	mux.HandleFunc("PUT /quotas/{tenant}", func(w http.ResponseWriter, r *http.Request) {
		var req Quota
		if !decodeBody(w, r, &req) {
			return
		}
		q, err := m.SetQuota(r.PathValue("tenant"), req)
		if err != nil {
			writeErr(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, q)
	})

	mux.HandleFunc("GET /devices", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, orEmpty(m.Devices()))
	})
	mux.HandleFunc("POST /devices/{id}/drain", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad device id"))
			return
		}
		if err := m.DrainDevice(id); err != nil {
			writeErr(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"device": id, "state": DeviceDrained})
	})
	mux.HandleFunc("POST /devices/{id}/readmit", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad device id"))
			return
		}
		if err := m.ReadmitDevice(id); err != nil {
			writeErr(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"device": id, "state": DeviceActive})
	})

	mux.HandleFunc("GET /slos", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, orEmpty(m.SLOs()))
	})
	mux.HandleFunc("GET /slos/{tenant}", func(w http.ResponseWriter, r *http.Request) {
		s, ok := m.GetSLO(r.PathValue("tenant"))
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("slo not found"))
			return
		}
		writeJSON(w, http.StatusOK, s)
	})
	mux.HandleFunc("PUT /slos/{tenant}", func(w http.ResponseWriter, r *http.Request) {
		var req SLO
		if !decodeBody(w, r, &req) {
			return
		}
		s, err := m.SetSLO(r.PathValue("tenant"), req)
		if err != nil {
			writeErr(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, s)
	})
	mux.HandleFunc("DELETE /slos/{tenant}", func(w http.ResponseWriter, r *http.Request) {
		if err := m.DeleteSLO(r.PathValue("tenant")); err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("GET /ops", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"ops":      orEmpty(m.Ops()),
			"counters": m.CountersSnapshot(),
		})
	})
	mux.HandleFunc("POST /ops/cleanup", func(w http.ResponseWriter, r *http.Request) {
		n, err := m.CleanupOps()
		resp := map[string]any{"cleaned": n}
		if err != nil {
			resp["error"] = err.Error()
			writeJSON(w, http.StatusConflict, resp)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /ops/{id}/cleanup", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad op id"))
			return
		}
		if err := m.CleanupOp(id); err != nil {
			writeErr(w, http.StatusConflict, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("GET /events", m.serveEvents)

	return mux
}

// sseHeartbeat is how often an idle /events stream emits a comment
// line. It doubles as the reap bound: a client that vanished without a
// context cancellation (half-open TCP, crashed reader) is detected by
// the heartbeat write failing, so its Subscribe slot is released within
// one interval instead of leaking until the next commit.
var sseHeartbeat = 15 * time.Second

// serveEvents streams store commits and injected SLO events as
// server-sent events, one `data:` line of Event JSON each, so watchers
// (gvrt-top) react to tenant/device changes instead of polling. A
// comment line is sent immediately so clients know the stream is live,
// and again every sseHeartbeat while idle.
func (m *Manager) serveEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	ch, cancel := m.store.Subscribe(256)
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": gvrt ctrlplane event stream, seq %d\n\n", m.store.Seq())
	fl.Flush()

	beat := time.NewTicker(sseHeartbeat)
	defer beat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-beat.C:
			if _, err := fmt.Fprintf(w, ": heartbeat\n\n"); err != nil {
				return
			}
			fl.Flush()
		case ev, ok := <-ch:
			if !ok {
				return // store closed
			}
			if _, err := fmt.Fprintf(w, "data: %s\n\n", encodeJSON(ev)); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// maxBodyBytes bounds a REST request body. Every request is a small
// JSON object; a larger body is refused before it is buffered.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's JSON body into v, replying 413 to a body over
// maxBodyBytes and 400 to a malformed one. It reports whether v is ready.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body over %d bytes", maxBodyBytes))
	} else {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
	}
	return false
}

// writeJSON writes a JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeErr writes a JSON error envelope.
func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// orEmpty keeps list endpoints returning [] instead of null.
func orEmpty[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s
}
