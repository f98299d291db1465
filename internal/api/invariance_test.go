package api

// The acceptance contract of the partitioned tier, checked at the
// outermost surface: the same seeded city served over HTTP answers
// every query with byte-identical JSON at 1, 2, and 4 collector
// partitions.

import (
	"fmt"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"caraoke/internal/city"
)

// serveResult stands an API server up over a finished city run: the
// run's directory (store or cluster), its speed and parking services,
// and the clock frozen at the run's end.
func serveResult(t *testing.T, res *city.Result) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Config{
		Directory: res.Directory(),
		Speed:     res.Speed,
		Parking:   res.Parking,
		Now:       func() time.Time { return res.End },
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func TestPartitionInvarianceOverHTTP(t *testing.T) {
	runCity := func(parts int) *city.Result {
		t.Helper()
		res, err := city.Run(city.Config{
			Readers:     8,
			Vehicles:    30,
			Parked:      6,
			Duration:    6 * time.Second,
			Seed:        7,
			DecodeEvery: 2,
			Partitions:  parts,
		})
		if err != nil {
			t.Fatalf("partitions=%d: %v", parts, err)
		}
		return res
	}

	base := runCity(1)
	if len(base.Decoded) == 0 {
		t.Fatal("no cars decoded — the invariance check is vacuous")
	}
	// The request list every backend answers: every decoded car, a miss,
	// a speed check per decoded CFO, the parking surface.
	var paths []string
	for _, d := range base.Decoded {
		paths = append(paths, fmt.Sprintf("/car/%#x", d.ID))
		paths = append(paths, fmt.Sprintf("/speed?freq=%s&tol=500&max_age=1h",
			url.QueryEscape(fmt.Sprintf("%g", d.FreqHz))))
	}
	paths = append(paths, "/car/0x1", "/parking", "/healthz")
	for spot := range base.ParkedSpots {
		paths = append(paths, fmt.Sprintf("/parking/%d", spot))
	}
	paths = append(paths, "/parking/9999")

	answers := func(res *city.Result) map[string]string {
		_, ts := serveResult(t, res)
		out := make(map[string]string, len(paths))
		for _, p := range paths {
			status, body := get(t, ts, p)
			out[p] = fmt.Sprintf("%d %s", status, body)
		}
		return out
	}

	want := answers(base)
	for _, parts := range []int{2, 4} {
		got := answers(runCity(parts))
		for _, p := range paths {
			if got[p] != want[p] {
				t.Errorf("partitions=%d: GET %s diverges:\n  1 partition:  %s\n  %d partitions: %s",
					parts, p, want[p], parts, got[p])
			}
		}
	}
}
