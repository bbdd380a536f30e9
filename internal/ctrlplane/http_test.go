package ctrlplane

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestSLORest walks the /slos resource end to end over the REST
// surface: declare, read back, list, and delete, with the tenant
// existence check enforced.
func TestSLORest(t *testing.T) {
	m := newTestManager(t, t.TempDir(), newFakeHooks(1), ManagerOptions{})
	h := RESTHandler(m)

	do := func(method, path, body string) *httptest.ResponseRecorder {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
		return w
	}

	// Declaring an SLO for an unknown tenant is refused.
	if w := do("PUT", "/slos/ghost", `{"launch_p99_ns": 1000}`); w.Code != http.StatusConflict {
		t.Fatalf("PUT for unknown tenant = %d, want 409", w.Code)
	}

	if _, err := m.CreateTenant("acme"); err != nil {
		t.Fatal(err)
	}
	w := do("PUT", "/slos/acme", `{"launch_p99_ns": 1000000, "max_error_ratio": 0.01}`)
	if w.Code != http.StatusOK {
		t.Fatalf("PUT /slos/acme = %d: %s", w.Code, w.Body)
	}

	var got SLO
	w = do("GET", "/slos/acme", "")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /slos/acme = %d", w.Code)
	}
	if err := json.NewDecoder(w.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Tenant != "acme" || got.LaunchP99NS != 1000000 || got.MaxErrorRatio != 0.01 {
		t.Errorf("round-tripped SLO = %+v", got)
	}

	var list []SLO
	w = do("GET", "/slos", "")
	if err := json.NewDecoder(w.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 {
		t.Errorf("GET /slos = %+v, want one record", list)
	}

	// Out-of-range objectives are refused.
	if w := do("PUT", "/slos/acme", `{"max_error_ratio": 2}`); w.Code != http.StatusConflict {
		t.Errorf("out-of-range ratio accepted: %d", w.Code)
	}

	if w := do("DELETE", "/slos/acme", ""); w.Code != http.StatusNoContent {
		t.Errorf("DELETE /slos/acme = %d", w.Code)
	}
	if w := do("GET", "/slos/acme", ""); w.Code != http.StatusNotFound {
		t.Errorf("GET after delete = %d, want 404", w.Code)
	}
	if w := do("DELETE", "/slos/acme", ""); w.Code != http.StatusNotFound {
		t.Errorf("double DELETE = %d, want 404", w.Code)
	}
}

// TestRESTRejectsOversizedBody: a request body over maxBodyBytes is
// refused with 413 before it reaches the store.
func TestRESTRejectsOversizedBody(t *testing.T) {
	m := newTestManager(t, t.TempDir(), newFakeHooks(1), ManagerOptions{})
	before := m.store.Seq()
	body := `{"name": "` + strings.Repeat("a", maxBodyBytes) + `"}`
	w := httptest.NewRecorder()
	RESTHandler(m).ServeHTTP(w, httptest.NewRequest("POST", "/tenants", strings.NewReader(body)))
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST /tenants = %d, want 413", w.Code)
	}
	if got := m.Tenants(); len(got) != 0 {
		t.Fatalf("oversized POST created tenants %+v", got)
	}
	if after := m.store.Seq(); after != before {
		t.Fatalf("store seq moved %d -> %d on a refused request", before, after)
	}
}

// TestEventsStream covers the SSE surface: commits and injected SLO
// events arrive as data lines, heartbeats arrive while idle, and a
// client disconnect reaps the watcher.
func TestEventsStream(t *testing.T) {
	old := sseHeartbeat
	sseHeartbeat = 50 * time.Millisecond
	defer func() { sseHeartbeat = old }()

	m := newTestManager(t, t.TempDir(), newFakeHooks(1), ManagerOptions{})
	srv := httptest.NewServer(RESTHandler(m))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if l := sc.Text(); l != "" {
				lines <- l
			}
		}
		close(lines)
	}()

	wait := func(substr string, what string) string {
		t.Helper()
		deadline := time.After(5 * time.Second)
		for {
			select {
			case l, ok := <-lines:
				if !ok {
					t.Fatalf("stream closed waiting for %s", what)
				}
				if strings.Contains(l, substr) {
					return l
				}
			case <-deadline:
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	wait(": gvrt ctrlplane event stream", "banner")
	wait(": heartbeat", "idle heartbeat")

	if _, err := m.CreateTenant("acme"); err != nil {
		t.Fatal(err)
	}
	// The create commits twice (pending-op record, then the tenant key
	// plus op removal); wait for the one carrying the tenant record.
	wait(TenantKey("acme"), "tenant commit event")

	m.Store().Inject(Event{Kind: "slo", Detail: json.RawMessage(`{"tenant":"acme","breaching":true}`)})
	injected := wait(`"kind":"slo"`, "injected SLO event")
	if !strings.Contains(injected, `"breaching":true`) {
		t.Errorf("injected event lost detail: %q", injected)
	}

	// Disconnect; the handler must reap the watcher (at the latest when
	// the next heartbeat write fails), releasing the Subscribe slot so
	// future broadcasts don't pile into a dead channel.
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m.Store().Watchers() == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("watcher not reaped after disconnect: %d still registered", m.Store().Watchers())
}
