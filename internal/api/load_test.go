package api

// The driver of TestLoadConcurrent: a seeded fleet of concurrent HTTP
// clients driving the serving layer with the query mix a deployed city
// would see — find-my-car lookups over a popular-id distribution, speed
// checks on the decoded CFOs, parking polls — and reporting latency
// percentiles and throughput. (The load generator of record is the perf
// harness's query_mix workload; this one exists to put the handlers
// under -race.)

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"
)

// LoadConfig sizes a load run.
type LoadConfig struct {
	// BaseURL is the server under test, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Clients is the number of concurrent clients (default 64).
	Clients int
	// Requests is the total request count, split across clients
	// (default 100 × Clients).
	Requests int
	// Seed drives every client's query choices; same seed, same request
	// mix.
	Seed int64
	// CarIDs, Freqs, and Spots are the query populations — typically a
	// run's decoded ids, decoded CFOs, and occupied spots. Empty pools
	// shift their share of the mix onto the other endpoints.
	CarIDs []uint64
	Freqs  []float64
	Spots  []int
}

// LoadSummary is a finished load run.
type LoadSummary struct {
	Clients       int
	Requests      int
	Errors        int
	WallSeconds   float64
	ThroughputRPS float64
	P50Ms         float64
	P90Ms         float64
	P99Ms         float64
	MaxMs         float64
	Status        map[string]int
	Server5xx     int
}

// RunLoad drives the server with cfg.Clients concurrent clients and
// returns the merged latency summary. Request latencies are measured
// per call (connect amortized over keep-alive pools, like a real
// client); the summary's Server5xx count is the load test's core
// assertion — a correct serving layer returns none under any
// concurrency.
func RunLoad(cfg LoadConfig) (*LoadSummary, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("api: load needs a BaseURL")
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 64
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 100 * cfg.Clients
	}
	tr := &http.Transport{
		MaxIdleConns:        2 * cfg.Clients,
		MaxIdleConnsPerHost: 2 * cfg.Clients,
	}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}

	type clientResult struct {
		lats   []time.Duration
		status map[int]int
		errs   int
	}
	results := make([]clientResult, cfg.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Clients; w++ {
		n := cfg.Requests / cfg.Clients
		if w < cfg.Requests%cfg.Clients {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed ^ int64(w+1)*0x9E3779B9))
			res := clientResult{lats: make([]time.Duration, 0, n), status: make(map[int]int)}
			for i := 0; i < n; i++ {
				url := pickQuery(cfg, rng)
				t0 := time.Now()
				resp, err := client.Get(url)
				if err != nil {
					res.errs++
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				res.lats = append(res.lats, time.Since(t0))
				res.status[resp.StatusCode]++
			}
			results[w] = res
		}(w, n)
	}
	wg.Wait()
	wall := time.Since(start)

	sum := &LoadSummary{
		Clients:     cfg.Clients,
		Requests:    cfg.Requests,
		WallSeconds: wall.Seconds(),
		Status:      make(map[string]int),
	}
	var lats []time.Duration
	for _, r := range results {
		lats = append(lats, r.lats...)
		sum.Errors += r.errs
		for code, n := range r.status {
			sum.Status[fmt.Sprintf("%d", code)] += n
			if code >= 500 {
				sum.Server5xx += n
			}
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if len(lats) > 0 {
		sum.P50Ms = ms(percentile(lats, 0.50))
		sum.P90Ms = ms(percentile(lats, 0.90))
		sum.P99Ms = ms(percentile(lats, 0.99))
		sum.MaxMs = ms(lats[len(lats)-1])
		sum.ThroughputRPS = float64(len(lats)) / wall.Seconds()
	}
	return sum, nil
}

// pickQuery draws one request from the city's query mix: half
// find-my-car (skewed toward the front of the id pool — a few cars are
// looked up constantly, which is what makes the TTL cache earn its
// keep), a quarter speed checks, a quarter parking polls.
func pickQuery(cfg LoadConfig, rng *rand.Rand) string {
	roll := rng.Float64()
	switch {
	case roll < 0.5 && len(cfg.CarIDs) > 0:
		i := rng.Intn(len(cfg.CarIDs))
		if rng.Float64() < 0.7 { // skew: 70% of lookups hit the first few ids
			i = rng.Intn((len(cfg.CarIDs) + 3) / 4)
		}
		return fmt.Sprintf("%s/car/%#x", cfg.BaseURL, cfg.CarIDs[i])
	case roll < 0.75 && len(cfg.Freqs) > 0:
		// QueryEscape the freq: %g renders ≥1 MHz CFOs as "1.2e+06",
		// and a bare + in a query string decodes as a space.
		f := fmt.Sprintf("%g", cfg.Freqs[rng.Intn(len(cfg.Freqs))])
		return fmt.Sprintf("%s/speed?freq=%s&tol=500", cfg.BaseURL, url.QueryEscape(f))
	case len(cfg.Spots) > 0 && rng.Float64() < 0.5:
		return fmt.Sprintf("%s/parking/%d", cfg.BaseURL, cfg.Spots[rng.Intn(len(cfg.Spots))])
	default:
		return cfg.BaseURL + "/parking"
	}
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

func ms(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
