package faults

import (
	"math/rand"
)

// epochSpan is a half-open [from, to) range of epochs a reader spends
// offline.
type epochSpan struct{ from, to int }

// ChurnSchedule decides reader presence per epoch — the parked-car RSU
// population model where readers join and leave the fleet mid-run. The
// schedule is fixed at construction from a seed, so the same seed
// always produces the same churn, independent of how the run's readers
// interleave.
//
// A nil *ChurnSchedule is valid and means "no churn": every reader is
// active every epoch.
type ChurnSchedule struct {
	offline map[uint32][]epochSpan
}

// NewChurnSchedule builds a schedule for the given reader ids over
// epochs epochs. rate is the per-epoch probability that an online
// reader departs; a departed reader stays away for a seeded span of
// 1..max(1, epochs/4) epochs before returning. rate 0 (or no epochs)
// returns nil — the always-active schedule.
func NewChurnSchedule(seed int64, ids []uint32, epochs int, rate float64) *ChurnSchedule {
	if rate <= 0 || epochs <= 0 {
		return nil
	}
	maxAway := epochs / 4
	if maxAway < 1 {
		maxAway = 1
	}
	s := &ChurnSchedule{offline: make(map[uint32][]epochSpan, len(ids))}
	for _, id := range ids {
		// A private stream per reader: one reader's schedule never
		// depends on how many others exist or in what order they were
		// listed.
		rng := rand.New(rand.NewSource(seed ^ int64(id)*0x6A09E667F3BCC909))
		var spans []epochSpan
		for e := 0; e < epochs; {
			if rng.Float64() < rate {
				away := 1 + rng.Intn(maxAway)
				to := e + away
				if to > epochs {
					to = epochs
				}
				spans = append(spans, epochSpan{from: e, to: to})
				e = to
				continue
			}
			e++
		}
		if len(spans) > 0 {
			s.offline[id] = spans
		}
	}
	return s
}

// Active reports whether the reader is present at the given epoch.
func (s *ChurnSchedule) Active(id uint32, epoch int) bool {
	if s == nil {
		return true
	}
	for _, sp := range s.offline[id] {
		if epoch >= sp.from && epoch < sp.to {
			return false
		}
		if epoch < sp.from {
			break // spans are in epoch order
		}
	}
	return true
}

// ActiveEpochs counts the epochs in [0, epochs) the reader is present.
func (s *ChurnSchedule) ActiveEpochs(id uint32, epochs int) int {
	if s == nil {
		return epochs
	}
	away := 0
	for _, sp := range s.offline[id] {
		to := sp.to
		if to > epochs {
			to = epochs
		}
		if to > sp.from {
			away += to - sp.from
		}
	}
	return epochs - away
}

// Departures counts how many times the reader leaves the fleet.
func (s *ChurnSchedule) Departures(id uint32) int {
	if s == nil {
		return 0
	}
	return len(s.offline[id])
}
