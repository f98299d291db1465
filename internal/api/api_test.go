package api

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"caraoke/internal/collector"
	"caraoke/internal/geom"
	"caraoke/internal/telemetry"
)

var apiBase = time.Date(2015, 8, 17, 8, 0, 0, 0, time.UTC)

// testBackend builds a small hand-fed backend: two readers sighting two
// cars (one CFO pair fast enough to speed), and two parked cars.
func testBackend(t testing.TB) Config {
	t.Helper()
	store := collector.NewStore(0)
	add := func(reader uint32, seq int, freq float64, id uint64) {
		store.Add(&telemetry.Report{
			ReaderID: reader, Seq: uint32(seq), Timestamp: apiBase.Add(time.Duration(seq) * time.Second),
			Count:  1,
			Spikes: []telemetry.SpikeRecord{{FreqHz: freq, DecodedID: id}},
		})
	}
	add(1, 1, 5002, 0xAA1) // the speeding car at reader 1, t=1s
	add(2, 2, 5004, 0xAA1) // ...and at reader 2 (50 m away), t=2s: 50 m/s
	add(1, 2, 7000, 0xBB2)

	speed := collector.NewSpeedService(store, 15)
	speed.RegisterReader(1, geom.P(0, 0))
	speed.RegisterReader(2, geom.P(50, 0))

	parking := collector.NewParkingService()
	if err := parking.Arrive(3, 0xAA1, apiBase); err != nil {
		t.Fatal(err)
	}
	if err := parking.Arrive(7, 0xCC3, apiBase.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	now := apiBase.Add(10 * time.Second)
	return Config{
		Directory: store,
		Speed:     speed,
		Parking:   parking,
		Now:       func() time.Time { return now },
	}
}

func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestEndpoints(t *testing.T) {
	ts := httptest.NewServer(New(testBackend(t)))
	defer ts.Close()

	cases := []struct {
		path   string
		status int
		wants  []string
	}{
		{"/healthz", 200, []string{`"status":"ok"`}},
		{"/car/0xaa1", 200, []string{`"found":true`, `"reader":2`, `"freq_hz":5004`, `"spot":3`}},
		{"/car/2737", 404, []string{`"id":"0xab1"`}}, // decimal accepted: 2737 = 0xab1, never sighted
		{"/car/aa1", 200, []string{`"found":true`}},  // bare hex accepted
		{"/car/0xdead", 404, []string{`"found":false`}},
		{"/car/bogus!", 400, []string{`"error"`}},
		{"/speed?freq=5000&tol=500", 200, []string{`"speed_mps":50`, `"over_limit":true`, `"from":1`, `"to":2`, `"decoded_id":"0xaa1"`}},
		{"/speed?freq=9999&tol=10", 404, []string{`"error"`}},
		{"/speed?freq=nope", 400, []string{`"error"`}},
		// ParseFloat reads these; none is a CFO or a tolerance.
		{"/speed?freq=Inf&tol=Inf", 400, []string{`"error":"bad freq \"Inf\""`}},
		{"/speed?freq=-Inf", 400, []string{`"error":"bad freq \"-Inf\""`}},
		{"/speed?freq=NaN", 400, []string{`"error":"bad freq \"NaN\""`}},
		{"/speed?freq=5000&tol=NaN", 400, []string{`"error":"bad tol \"NaN\""`}},
		{"/speed?freq=1e308&tol=Inf", 400, []string{`"error":"bad tol \"Inf\""`}},
		{"/speed?freq=5000&tol=-Inf", 400, []string{`"error":"bad tol \"-Inf\""`}},
		{"/speed?freq=5000&tol=0", 400, []string{`"error":"bad tol \"0\""`}},
		{"/parking", 200, []string{`"spot":3`, `"id":"0xaa1"`, `"spot":7`, `"id":"0xcc3"`}},
		{"/parking/7", 200, []string{`"occupied":true`, `"id":"0xcc3"`}},
		{"/parking/5", 200, []string{`"occupied":false`}},
		{"/stats", 200, []string{`"cache_hits"`, `"cache_misses"`}},
	}
	for _, c := range cases {
		status, body := get(t, ts, c.path)
		if status != c.status {
			t.Errorf("GET %s: status %d, want %d (body %s)", c.path, status, c.status, body)
		}
		for _, w := range c.wants {
			if !strings.Contains(body, w) {
				t.Errorf("GET %s: body %s missing %q", c.path, body, w)
			}
		}
	}
}

// TestSpeedRefusesNonFinite: with one sighting at each of two readers a
// second apart, a tolerance of Inf matches both whatever the frequency.
// A parser that let Inf through answered freq=Inf with a 500 (an
// infinite FreqHz does not marshal) and freq=1e308 with a 200 speed for
// a CFO no car has.
func TestSpeedRefusesNonFinite(t *testing.T) {
	store := collector.NewStore(0)
	for i, freq := range []float64{5002, 5004} {
		store.Add(&telemetry.Report{
			ReaderID: uint32(i + 1), Seq: 1, Timestamp: apiBase.Add(time.Duration(i+1) * time.Second),
			Count:  1,
			Spikes: []telemetry.SpikeRecord{{FreqHz: freq}},
		})
	}
	speed := collector.NewSpeedService(store, 15)
	speed.RegisterReader(1, geom.P(0, 0))
	speed.RegisterReader(2, geom.P(50, 0))
	now := apiBase.Add(10 * time.Second)
	ts := httptest.NewServer(New(Config{Directory: store, Speed: speed, Now: func() time.Time { return now }}))
	defer ts.Close()
	if status, body := get(t, ts, "/speed?freq=5000&tol=500"); status != 200 {
		t.Fatalf("GET /speed on a finite query = %d %s, want 200", status, body)
	}
	for _, path := range []string{"/speed?freq=Inf&tol=Inf", "/speed?freq=1e308&tol=Inf", "/speed?freq=5000&tol=NaN"} {
		if status, body := get(t, ts, path); status != 400 {
			t.Errorf("GET %s = %d %s, want 400", path, status, body)
		}
	}
}

// TestCar2737IsUnknown pins the decimal-id case: 2737 (0xab1) was never
// sighted, so the lookup must be a 404 — the table above only checked
// the id echo.
func TestCar2737IsUnknown(t *testing.T) {
	ts := httptest.NewServer(New(testBackend(t)))
	defer ts.Close()
	if status, body := get(t, ts, "/car/2737"); status != 404 || !strings.Contains(body, `"found":false`) {
		t.Fatalf("GET /car/2737 = %d %s, want a 404 miss", status, body)
	}
}

// TestCacheTTL: identical queries inside the TTL replay the cached
// body and count hits; advancing the injected clock past the TTL
// expires the entry and recomputes.
func TestCacheTTL(t *testing.T) {
	cfg := testBackend(t)
	now := apiBase.Add(10 * time.Second)
	cfg.Now = func() time.Time { return now }
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	_, first := get(t, ts, "/car/0xaa1")
	_, second := get(t, ts, "/car/0xaa1")
	if first != second {
		t.Fatalf("cached replay differs:\n%s\n%s", first, second)
	}
	if hits, misses := srv.CacheStats(); hits != 1 || misses != 1 {
		t.Fatalf("cache counters = %d hits / %d misses, want 1/1", hits, misses)
	}
	now = now.Add(2 * DefaultCarTTL) // past the TTL: entry expires
	_, third := get(t, ts, "/car/0xaa1")
	if first != third {
		t.Fatalf("recomputed answer differs from original:\n%s\n%s", first, third)
	}
	if hits, misses := srv.CacheStats(); hits != 1 || misses != 2 {
		t.Fatalf("cache counters after expiry = %d hits / %d misses, want 1/2", hits, misses)
	}
	// A different query is its own key.
	get(t, ts, "/car/0xbb2")
	if hits, misses := srv.CacheStats(); hits != 1 || misses != 3 {
		t.Fatalf("cache counters after new key = %d hits / %d misses, want 1/3", hits, misses)
	}
}

// TestCacheBounded: a full cache serves new keys uncached instead of
// growing without bound.
func TestCacheBounded(t *testing.T) {
	srv := New(testBackend(t))
	srv.cache.max = 8
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for i := 0; i < 100; i++ {
		get(t, ts, fmt.Sprintf("/car/%#x", 0x1000+i))
	}
	if n := srv.cache.len(); n > 8 {
		t.Fatalf("cache grew to %d entries past its bound of 8", n)
	}
}

// TestLoadConcurrent is the serving-layer smoke the CI runs under
// -race: hundreds of concurrent clients, zero 5xx, zero transport
// errors, and a cache that actually absorbed repeats.
func TestLoadConcurrent(t *testing.T) {
	cfg := testBackend(t)
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	clients := 256
	if testing.Short() {
		clients = 32
	}
	sum, err := RunLoad(LoadConfig{
		BaseURL:  ts.URL,
		Clients:  clients,
		Requests: clients * 16,
		Seed:     42,
		CarIDs:   []uint64{0xAA1, 0xBB2, 0xDEAD},
		Freqs:    []float64{5000, 7000},
		Spots:    []int{3, 5, 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errors > 0 {
		t.Errorf("%d transport errors under load", sum.Errors)
	}
	if sum.Server5xx > 0 {
		t.Errorf("%d server 5xx under load: %v", sum.Server5xx, sum.Status)
	}
	if sum.Requests != clients*16 {
		t.Errorf("summary counts %d requests, want %d", sum.Requests, clients*16)
	}
	hits, _ := srv.CacheStats()
	if hits == 0 {
		t.Error("cache absorbed nothing under a repeat-heavy load")
	}
	if sum.P50Ms <= 0 || sum.P99Ms < sum.P50Ms || sum.MaxMs < sum.P99Ms {
		t.Errorf("latency summary inconsistent: p50=%.3f p99=%.3f max=%.3f", sum.P50Ms, sum.P99Ms, sum.MaxMs)
	}
	if sum.ThroughputRPS <= 0 {
		t.Error("throughput not measured")
	}
}
