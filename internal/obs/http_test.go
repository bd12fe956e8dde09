package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestHTTPHandlerPrometheusAndDaemonRoutes: the mux serves the registry
// at /metrics, and a route a daemon mounts on it (gnutellad's
// /online.json) is served beside it.
func TestHTTPHandlerPrometheusAndDaemonRoutes(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("requests_total", "served requests").Add(3)
	h := NewHTTPHandler(HTTPConfig{Registry: reg, Pprof: true})
	h.HandleFunc("/online.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]int{"requests": 3})
	})

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); ct != ContentTypePrometheus {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	body := rr.Body.String()
	if !strings.Contains(body, "# TYPE requests_total counter\n") ||
		!strings.Contains(body, "requests_total 3\n") {
		t.Fatalf("/metrics body:\n%s", body)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/online.json", nil))
	var online map[string]int
	if err := json.Unmarshal(rr.Body.Bytes(), &online); err != nil {
		t.Fatalf("daemon route payload not JSON: %v", err)
	}
	if online["requests"] != 3 {
		t.Fatalf("daemon route payload = %v", online)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("pprof index status = %d", rr.Code)
	}
}

func TestHTTPHandlerPprofDisabledByDefault(t *testing.T) {
	h := NewHTTPHandler(HTTPConfig{Registry: NewRegistry()})
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("pprof served without flag: status %d", rr.Code)
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics.json", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("/metrics.json served: status %d", rr.Code)
	}
}
