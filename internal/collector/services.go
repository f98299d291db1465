package collector

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"caraoke/internal/core"
	"caraoke/internal/geom"
)

// Directory is the query surface the city services are built on: the
// sighting lookups a single Store answers directly and a partitioned
// collector tier answers by fanning out to its partitions and merging
// (per-reader maps union disjointly; per-id latest sightings fold under
// SightingWins). Services written against Directory work unchanged over
// one collector or many.
type Directory interface {
	// FindCar locates the latest sighting of a decoded transponder id.
	FindCar(id uint64) (CarSighting, bool)
	// DecodedIDAt returns the decoded id whose latest sighting's CFO is
	// nearest freq, within tol (ties to the smaller id), or zero.
	DecodedIDAt(freq, tol float64) uint64
	// SightingsByCFO returns, per reader, its most recent spike within
	// tol of freq.
	SightingsByCFO(freq, tol float64) map[uint32]CarSighting
}

// Store implements Directory.
var _ Directory = (*Store)(nil)

// SpeedService turns cross-reader sightings into speed measurements —
// the city side of §7. Readers are registered with their pole
// positions; cars are associated across readers by CFO and their
// transit time gives the speed. The directory may be a single Store or
// a partitioned cluster: the cross-partition speed-pair case (a
// vehicle's two detections landing on different collectors) is the
// directory's merge problem, not the service's.
type SpeedService struct {
	dir   Directory
	poles map[uint32]geom.Vec2 // reader id → road-plane pole position
	// LimitMPS is the speed limit in m/s; Check flags faster cars.
	LimitMPS float64
}

// NewSpeedService creates a service over a sighting directory (a
// *Store, or a multi-collector query router).
func NewSpeedService(dir Directory, limitMPS float64) *SpeedService {
	return &SpeedService{dir: dir, poles: make(map[uint32]geom.Vec2), LimitMPS: limitMPS}
}

// RegisterReader records a reader's pole position.
func (s *SpeedService) RegisterReader(id uint32, pos geom.Vec2) {
	s.poles[id] = pos
}

// Violation is a speeding detection.
type Violation struct {
	FreqHz    float64 // the car's CFO (identity follows via decoding)
	SpeedMPS  float64
	DecodedID uint64 // the decoded id sighted nearest FreqHz, within Check's tol; 0 if none
	From, To  uint32 // reader pair
	At        time.Time
}

// Check estimates the speed of the car whose CFO is freq from its most
// recent sightings at two registered readers, and reports whether it
// exceeds the limit. Sightings older than maxAge are ignored (stale
// associations would alias different cars with similar CFOs).
func (s *SpeedService) Check(freq, tol float64, maxAge time.Duration, now time.Time) (Violation, bool, error) {
	sightings := s.dir.SightingsByCFO(freq, tol)
	type hit struct {
		id  uint32
		sgt CarSighting
		pos geom.Vec2
	}
	var hits []hit
	for id, sgt := range sightings {
		pos, ok := s.poles[id]
		if !ok || now.Sub(sgt.Seen) > maxAge {
			continue
		}
		hits = append(hits, hit{id, sgt, pos})
	}
	if len(hits) < 2 {
		return Violation{}, false, fmt.Errorf("collector: %d usable sightings for CFO %.1f kHz, need 2", len(hits), freq/1e3)
	}
	// Total order: ties on the timestamp (two readers reporting the
	// same epoch) break on reader id, so results do not depend on map
	// iteration order.
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].sgt.Seen.Equal(hits[j].sgt.Seen) {
			return hits[i].id < hits[j].id
		}
		return hits[i].sgt.Seen.Before(hits[j].sgt.Seen)
	})
	a, b := hits[0], hits[len(hits)-1]
	est, err := core.EstimateSpeed(
		core.Observation{Pos: a.pos, Time: a.sgt.Seen, Freq: a.sgt.FreqHz},
		core.Observation{Pos: b.pos, Time: b.sgt.Seen, Freq: b.sgt.FreqHz},
	)
	if err != nil {
		return Violation{}, false, err
	}
	v := Violation{
		FreqHz:    freq,
		SpeedMPS:  est.Speed,
		From:      a.id,
		To:        b.id,
		At:        b.sgt.Seen,
		DecodedID: s.dir.DecodedIDAt(freq, tol),
	}
	return v, est.Speed > s.LimitMPS, nil
}

// ParkingService tracks per-spot occupancy from decoded parked-car
// sightings — the billing side of the paper's smart street-parking.
// All methods are safe for concurrent use, so an HTTP serving layer can
// read occupancy while sessions open and close.
type ParkingService struct {
	mu sync.RWMutex
	// occupancy maps spot index → decoded transponder id.
	occupancy map[int]uint64
	since     map[int]time.Time
}

// NewParkingService creates an empty occupancy tracker.
func NewParkingService() *ParkingService {
	return &ParkingService{occupancy: make(map[int]uint64), since: make(map[int]time.Time)}
}

// Arrive records a car parking in a spot.
func (p *ParkingService) Arrive(spot int, id uint64, at time.Time) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cur, ok := p.occupancy[spot]; ok {
		return fmt.Errorf("collector: spot %d already held by %#x", spot, cur)
	}
	p.occupancy[spot] = id
	p.since[spot] = at
	return nil
}

// Depart closes a parking session and returns the billable duration.
func (p *ParkingService) Depart(spot int, at time.Time) (uint64, time.Duration, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	id, ok := p.occupancy[spot]
	if !ok {
		return 0, 0, fmt.Errorf("collector: spot %d is empty", spot)
	}
	dur := at.Sub(p.since[spot])
	delete(p.occupancy, spot)
	delete(p.since, spot)
	return id, dur, nil
}

// Occupied reports the spot's state and holder.
func (p *ParkingService) Occupied(spot int) (uint64, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	id, ok := p.occupancy[spot]
	return id, ok
}

// FindCar returns the spot holding the given id, if any — the paper's
// "query the system to locate his parked car".
func (p *ParkingService) FindCar(id uint64) (int, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	for spot, holder := range p.occupancy {
		if holder == id {
			return spot, true
		}
	}
	return 0, false
}

// ParkingSession is one open occupancy record.
type ParkingSession struct {
	Spot  int
	ID    uint64
	Since time.Time
}

// Sessions lists the open parking sessions sorted by spot index — the
// deterministic enumeration the HTTP parking endpoint serves.
func (p *ParkingService) Sessions() []ParkingSession {
	p.mu.RLock()
	out := make([]ParkingSession, 0, len(p.occupancy))
	for spot, id := range p.occupancy {
		out = append(out, ParkingSession{Spot: spot, ID: id, Since: p.since[spot]})
	}
	p.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Spot < out[j].Spot })
	return out
}
