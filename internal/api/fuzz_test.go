package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// FuzzServeHTTP serves an arbitrary path and raw query: no panic, no
// 5xx, and every JSON answer parses. Only request URIs net/http itself
// would accept are served; the mux's own redirects and 404s are plain
// text and are held to the status rule only.
func FuzzServeHTTP(f *testing.F) {
	for _, seed := range [][2]string{
		{"/healthz", ""},
		{"/stats", ""},
		{"/car/0xaa1", ""},
		{"/car/2737", ""},
		{"/car/1e+06", ""}, // what a %g-formatted id looks like
		{"/car/%00", ""},
		{"/speed", "freq=5000&tol=500&max_age=1h"},
		{"/speed", "freq=Inf&tol=Inf"},
		{"/speed", "freq=1e308&tol=Inf"},
		{"/speed", "freq=NaN"},
		{"/speed", "freq=5000&tol=NaN"},
		{"/speed", "freq=%00"},
		{"/parking", ""},
		{"/parking/7", ""},
		{"/parking/12345678901234567890", ""},
	} {
		f.Add(seed[0], seed[1])
	}
	srv := New(testBackend(f))
	f.Fuzz(func(t *testing.T, path, query string) {
		target := path
		if query != "" {
			target += "?" + query
		}
		u, err := url.ParseRequestURI(target)
		if err != nil {
			t.Skip()
		}
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		r.URL, r.RequestURI = u, target
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, r)
		if w.Code >= 500 {
			t.Fatalf("GET %q: status %d: %s", target, w.Code, w.Body)
		}
		if strings.HasPrefix(w.Header().Get("Content-Type"), "application/json") && w.Body.Len() > 0 && !json.Valid(w.Body.Bytes()) {
			t.Fatalf("GET %q: body is not JSON: %q", target, w.Body)
		}
	})
}
