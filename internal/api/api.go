// Package api is the city's public query front end: an HTTP/JSON
// serving layer over the collector tier's query surface — the paper's
// find-my-car, speed-violation, and street-parking applications as a
// citizen-facing service. The handlers are written against
// collector.Directory, so the same server runs over a single collector
// store or a partitioned cluster's merged query plane; answers are
// identical either way (the partition-invariance contract).
//
// Every query endpoint sits behind a per-route TTL cache keyed by the
// full request path+query. Sighting state advances at epoch cadence
// (seconds), so answers a few hundred milliseconds stale are
// indistinguishable from fresh ones — the cache is what lets thousands
// of concurrent clients share the handful of distinct queries a city
// actually sees. Hit/miss counters are exported on /stats and asserted
// by the load tests.
package api

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"caraoke/internal/collector"
)

// The cache TTLs per route. Car sightings change at epoch cadence;
// speed answers fold a "now" into the max-age filter so they expire
// faster; parking sessions are the most commonly polled and cheapest to
// recompute. DefaultCacheSize bounds the cache entry count. A put
// first sheds every expired entry, in expiry order off a min-heap; a
// cache still full of live entries serves the new key uncached and
// never evicts a live one.
const (
	DefaultCarTTL     = time.Second
	DefaultSpeedTTL   = 500 * time.Millisecond
	DefaultParkingTTL = 250 * time.Millisecond
	DefaultCacheSize  = 4096
)

// Config wires a Server to its backends. Directory is required; Speed
// and Parking are optional (their endpoints answer 404 when absent).
type Config struct {
	// Directory answers sighting queries — a *collector.Store or a
	// *cluster.Cluster.
	Directory collector.Directory
	// Speed, when set, backs GET /speed.
	Speed *collector.SpeedService
	// Parking, when set, backs GET /parking and GET /parking/{spot}.
	Parking *collector.ParkingService
	// Now, when set, replaces the wall clock — both for cache expiry and
	// for the speed check's max-age filter. Tests and simulations inject
	// a frozen or simulated clock here.
	Now func() time.Time
}

// Server is the HTTP front end. It implements http.Handler.
type Server struct {
	cfg   Config
	cache *ttlCache
	mux   *http.ServeMux
}

// New builds a Server over the given backends.
func New(cfg Config) *Server {
	if cfg.Directory == nil {
		panic("api: Config.Directory is required")
	}
	s := &Server{cfg: cfg, cache: newTTLCache(DefaultCacheSize), mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.Handle("GET /car/{id}", s.cached(DefaultCarTTL, s.handleCar))
	s.mux.Handle("GET /speed", s.cached(DefaultSpeedTTL, s.handleSpeed))
	s.mux.Handle("GET /parking", s.cached(DefaultParkingTTL, s.handleParking))
	s.mux.Handle("GET /parking/{spot}", s.cached(DefaultParkingTTL, s.handleParkingSpot))
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// CacheStats returns the cache hit/miss counters — what the CI load
// smoke asserts non-zero hits on.
func (s *Server) CacheStats() (hits, misses int64) {
	return s.cache.hits.Load(), s.cache.misses.Load()
}

func (s *Server) now() time.Time {
	if s.cfg.Now != nil {
		return s.cfg.Now()
	}
	return time.Now()
}

// cached wraps a query handler with the TTL cache: the marshaled
// response (status and body together) is stored under the request's
// path+query and replayed until expiry, so concurrent clients asking
// the same question share one backend fan-out.
func (s *Server) cached(ttl time.Duration, h func(*http.Request) (int, any)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := r.URL.Path
		if r.URL.RawQuery != "" {
			key += "?" + r.URL.RawQuery
		}
		now := s.now()
		if status, body, ok := s.cache.get(key, now); ok {
			writeBody(w, status, body)
			return
		}
		status, payload := h(r)
		body, err := json.Marshal(payload)
		if err != nil {
			http.Error(w, `{"error":"encoding failed"}`, http.StatusInternalServerError)
			return
		}
		s.cache.put(key, status, body, now, now.Add(ttl))
		writeBody(w, status, body)
	})
}

func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
	w.Write([]byte("\n"))
}

// apiError is the JSON shape of every non-2xx answer.
type apiError struct {
	Error string `json:"error"`
}

// carResponse answers GET /car/{id}. Times are UnixNano so the body is
// byte-identical regardless of the serving host's zone database.
type carResponse struct {
	ID     string  `json:"id"`
	Found  bool    `json:"found"`
	Reader uint32  `json:"reader,omitempty"`
	SeenNS int64   `json:"seen_ns,omitempty"`
	FreqHz float64 `json:"freq_hz,omitempty"`
	// Spot is the parking spot holding the car, when the parking service
	// knows of one — the paper's "query the system to locate his parked
	// car".
	Spot *int `json:"spot,omitempty"`
}

func (s *Server) handleCar(r *http.Request) (int, any) {
	raw := r.PathValue("id")
	// Accept decimal and 0x-prefixed hex (ParseUint base 0), falling
	// back to bare hex — ids print as hex everywhere else in the system.
	id, err := strconv.ParseUint(raw, 0, 64)
	if err != nil {
		id, err = strconv.ParseUint(raw, 16, 64)
	}
	if err != nil || id == 0 {
		return http.StatusBadRequest, apiError{Error: fmt.Sprintf("bad car id %q", raw)}
	}
	resp := carResponse{ID: fmt.Sprintf("%#x", id)}
	if sgt, ok := s.cfg.Directory.FindCar(id); ok {
		resp.Found = true
		resp.Reader = sgt.ReaderID
		resp.SeenNS = sgt.Seen.UnixNano()
		resp.FreqHz = sgt.FreqHz
	}
	if s.cfg.Parking != nil {
		if spot, ok := s.cfg.Parking.FindCar(id); ok {
			resp.Spot = &spot
			resp.Found = true
		}
	}
	if !resp.Found {
		return http.StatusNotFound, resp
	}
	return http.StatusOK, resp
}

// speedResponse answers GET /speed.
type speedResponse struct {
	FreqHz    float64 `json:"freq_hz"`
	SpeedMPS  float64 `json:"speed_mps"`
	OverLimit bool    `json:"over_limit"`
	From      uint32  `json:"from"`
	To        uint32  `json:"to"`
	AtNS      int64   `json:"at_ns"`
	DecodedID string  `json:"decoded_id,omitempty"`
}

func (s *Server) handleSpeed(r *http.Request) (int, any) {
	if s.cfg.Speed == nil {
		return http.StatusNotFound, apiError{Error: "speed service not configured"}
	}
	q := r.URL.Query()
	// ParseFloat accepts "Inf" and "NaN": neither is a CFO or a
	// tolerance, and an infinite frequency cannot be marshaled back.
	freq, err := strconv.ParseFloat(q.Get("freq"), 64)
	if err != nil || math.IsNaN(freq) || math.IsInf(freq, 0) {
		return http.StatusBadRequest, apiError{Error: fmt.Sprintf("bad freq %q", q.Get("freq"))}
	}
	tol := 500.0
	if v := q.Get("tol"); v != "" {
		if tol, err = strconv.ParseFloat(v, 64); err != nil || math.IsNaN(tol) || math.IsInf(tol, 0) || tol <= 0 {
			return http.StatusBadRequest, apiError{Error: fmt.Sprintf("bad tol %q", v)}
		}
	}
	maxAge := time.Hour
	if v := q.Get("max_age"); v != "" {
		if maxAge, err = time.ParseDuration(v); err != nil || maxAge <= 0 {
			return http.StatusBadRequest, apiError{Error: fmt.Sprintf("bad max_age %q", v)}
		}
	}
	v, over, err := s.cfg.Speed.Check(freq, tol, maxAge, s.now())
	if err != nil {
		// Too few usable sightings is a miss, not a server fault.
		return http.StatusNotFound, apiError{Error: err.Error()}
	}
	resp := speedResponse{
		FreqHz:    v.FreqHz,
		SpeedMPS:  v.SpeedMPS,
		OverLimit: over,
		From:      v.From,
		To:        v.To,
		AtNS:      v.At.UnixNano(),
	}
	if v.DecodedID != 0 {
		resp.DecodedID = fmt.Sprintf("%#x", v.DecodedID)
	}
	return http.StatusOK, resp
}

// parkingSession is one open session in GET /parking's list.
type parkingSession struct {
	Spot    int    `json:"spot"`
	ID      string `json:"id"`
	SinceNS int64  `json:"since_ns"`
}

func (s *Server) handleParking(r *http.Request) (int, any) {
	if s.cfg.Parking == nil {
		return http.StatusNotFound, apiError{Error: "parking service not configured"}
	}
	sessions := s.cfg.Parking.Sessions()
	out := make([]parkingSession, len(sessions))
	for i, ps := range sessions {
		out[i] = parkingSession{Spot: ps.Spot, ID: fmt.Sprintf("%#x", ps.ID), SinceNS: ps.Since.UnixNano()}
	}
	return http.StatusOK, out
}

// spotResponse answers GET /parking/{spot}.
type spotResponse struct {
	Spot     int    `json:"spot"`
	Occupied bool   `json:"occupied"`
	ID       string `json:"id,omitempty"`
}

func (s *Server) handleParkingSpot(r *http.Request) (int, any) {
	if s.cfg.Parking == nil {
		return http.StatusNotFound, apiError{Error: "parking service not configured"}
	}
	spot, err := strconv.Atoi(r.PathValue("spot"))
	if err != nil {
		return http.StatusBadRequest, apiError{Error: fmt.Sprintf("bad spot %q", r.PathValue("spot"))}
	}
	resp := spotResponse{Spot: spot}
	if id, ok := s.cfg.Parking.Occupied(spot); ok {
		resp.Occupied = true
		resp.ID = fmt.Sprintf("%#x", id)
	}
	return http.StatusOK, resp
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeBody(w, http.StatusOK, []byte(`{"status":"ok"}`))
}

// statsResponse answers GET /stats — never cached, so the counters it
// reports are live.
type statsResponse struct {
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheEntries int   `json:"cache_entries"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.CacheStats()
	body, _ := json.Marshal(statsResponse{CacheHits: hits, CacheMisses: misses, CacheEntries: s.cache.len()})
	writeBody(w, http.StatusOK, body)
}
