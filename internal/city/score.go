package city

// Scoring: each report is tallied against the truth as it is produced,
// the way IntersectionStats accumulate, so the collector's retention
// window cannot bias the score. The package comment says who computes
// the truth and who reads it.

import (
	"fmt"
	"math"
	"slices"

	"caraoke/internal/phy"
	"caraoke/internal/transponder"
)

// fftBinHz is the width of one bin of a capture's spectrum: two
// carriers closer than this share a spike, which §8 cannot decode.
const fftBinHz = phy.SampleRate / phy.ResponseSamples

// Score is a run scored against the simulator's truth: the §5 count of
// every reader-epoch, binned by its truth, the §8 decodes of every
// decode epoch, the §7 speed answers and the parking answer.
type Score struct {
	// Count bins the reader-epochs by truth: 0, 1–4, 5–12, 13–24 and
	// > 24 triggered devices.
	Count   [5]CountBin
	Decode  DecodeScore
	Speed   SpeedScore
	Parking ParkingScore
}

// CountBin is the §5 count's error over the reader-epochs whose truth —
// the claimed devices TriggeredFrom the reader's centre, the set
// Reader.query transmits — lies in [Lo, Hi].
type CountBin struct {
	Lo, Hi    int // triggered devices; Hi is math.MaxInt in the top bin
	Epochs    int // reader-epochs
	Truth     int // Σ truth
	AbsErr    int // Σ |count − truth|
	SignedErr int // Σ (count − truth)
}

// Name is the bin's truth range: "0", "1–4", "> 24".
func (b CountBin) Name() string {
	switch {
	case b.Lo == b.Hi:
		return fmt.Sprint(b.Lo)
	case b.Hi == math.MaxInt:
		return fmt.Sprintf("> %d", b.Lo-1)
	}
	return fmt.Sprintf("%d–%d", b.Lo, b.Hi)
}

// Accuracy is 1 − Σ|count − truth| / Σ truth.
func (b CountBin) Accuracy() float64 { return 1 - float64(b.AbsErr)/float64(b.Truth) }

// Bias is the mean signed error of a reader-epoch, in cars.
func (b CountBin) Bias() float64 { return float64(b.SignedErr) / float64(b.Epochs) }

// DecodeScore is §8 over the run's decode epochs. A device is single
// when it is triggered and alone in its FFT bin (fftBinHz): the spikes
// the reader tries to decode.
type DecodeScore struct {
	Epochs   int // reader decode epochs
	Single   int // Σ triggered single-occupancy devices
	Recalled int // Σ of those whose id the reader decoded
	Decodes  int // Σ ids decoded, right or wrong
	// Wrong lists every decoded id that is no device the reader
	// claimed that epoch, in reader order, then epoch order.
	Wrong []uint64
}

// Recall is the share of single-occupancy devices decoded.
func (d DecodeScore) Recall() float64 { return float64(d.Recalled) / float64(d.Single) }

// SpeedScore is §7: the run's speed answers (Result.Speeds) against
// each checked car's true speed — its constant speed, 0 when parked.
type SpeedScore struct {
	Answers int
	// P50 and P90 are |answer − true speed| in m/s at the nearest rank:
	// index round(q·(n−1)) of the sorted errors; 0 with no answer.
	P50, P90      float64
	Speeding      int // answers flagged SPEEDING (over speedLimit)
	FalseSpeeding int // of those, cars whose true speed is ≤ speedLimit
	WrongIDs      int // answers whose DecodedID is not the checked car
}

// ParkingScore is the parking answer (Result.ParkedSpots) against the
// cars parked curbside.
type ParkingScore struct {
	Parked   int // cars parked curbside
	Answered int // spots the run answers
	// Measured counts answered spots read off reports rather than
	// copied from the truth: 0 until ROADMAP item 5 measures them.
	Measured int
}

// Lines renders the score as caraoke-sim prints it, one "score:" line
// each: §5 per truth bin, §8 over the decode epochs with every wrong id
// named, §7 over the speed answers, and parking in runs that park cars.
func (s Score) Lines() []string {
	var out []string
	line := func(format string, args ...any) { out = append(out, fmt.Sprintf("score: "+format, args...)) }
	for _, b := range s.Count {
		switch {
		case b.Epochs == 0:
			line("§5 truth %s: 0 reader-epochs", b.Name())
		case b.Truth == 0:
			line("§5 truth %s: %d reader-epochs, %d phantom cars", b.Name(), b.Epochs, b.AbsErr)
		default:
			line("§5 truth %s: %d reader-epochs, accuracy %.3f, bias %+.2f cars",
				b.Name(), b.Epochs, b.Accuracy(), b.Bias())
		}
	}
	if d := s.Decode; d.Epochs > 0 {
		recall := "n/a"
		if d.Single > 0 {
			recall = fmt.Sprintf("%.3f", d.Recall())
		}
		line("§8 %d decode epochs: recall %s (%d of %d single-occupancy devices), %d decodes, %d wrong ids",
			d.Epochs, recall, d.Recalled, d.Single, d.Decodes, len(d.Wrong))
		for _, id := range d.Wrong {
			line("§8 wrong id %#x", id)
		}
	}
	if v := s.Speed; v.Answers == 0 {
		line("§7 0 answers")
	} else {
		line("§7 %d answers: |error| p50 %.2f m/s, p90 %.2f m/s, %d SPEEDING (%d false), %d wrong ids",
			v.Answers, v.P50, v.P90, v.Speeding, v.FalseSpeeding, v.WrongIDs)
	}
	if p := s.Parking; p.Parked > 0 {
		line("parking %d parked cars: %d spots answered, %d measured", p.Parked, p.Answered, p.Measured)
	}
	return out
}

// newScore is an empty score with its count bins' bounds set.
func newScore() Score {
	return Score{Count: [5]CountBin{
		{Lo: 0, Hi: 0}, {Lo: 1, Hi: 4}, {Lo: 5, Hi: 12}, {Lo: 13, Hi: 24}, {Lo: 25, Hi: math.MaxInt},
	}}
}

// merge adds o's tallies to s.
func (s *Score) merge(o Score) {
	for i, b := range o.Count {
		c := &s.Count[i]
		c.Epochs += b.Epochs
		c.Truth += b.Truth
		c.AbsErr += b.AbsErr
		c.SignedErr += b.SignedErr
	}
	s.Decode.Epochs += o.Decode.Epochs
	s.Decode.Single += o.Decode.Single
	s.Decode.Recalled += o.Decode.Recalled
	s.Decode.Decodes += o.Decode.Decodes
	s.Decode.Wrong = append(s.Decode.Wrong, o.Decode.Wrong...)
}

// scoreSpeeds is the §7 scorer, the one reader of the world's speed
// view; summarize calls it once the answers exist. An answer whose
// checked id is no fleet device has no true speed and leaves the error
// and the false flags alone: §8 already names that id wrong.
func (s *Sim) scoreSpeeds(answers []SpeedAnswer) SpeedScore {
	speeds := s.world.Speeds()
	sc := SpeedScore{Answers: len(answers)}
	var errs []float64
	for _, a := range answers {
		if a.Speeding {
			sc.Speeding++
		}
		if a.DecodedID != a.ID {
			sc.WrongIDs++
		}
		v, ok := speeds[a.ID]
		if !ok {
			continue
		}
		errs = append(errs, math.Abs(a.SpeedMPS-v))
		if a.Speeding && v <= speedLimit {
			sc.FalseSpeeding++
		}
	}
	if n := len(errs); n > 0 {
		slices.Sort(errs)
		rank := func(q float64) float64 { return errs[int(math.Round(q*float64(n-1)))] }
		sc.P50, sc.P90 = rank(0.5), rank(0.9)
	}
	return sc
}

// truth is what the coordinator knows of one reader-epoch that the
// reader does not.
type truth struct {
	triggered int      // claimed devices TriggeredFrom the reader's centre
	single    []uint64 // decode epochs: the triggered devices alone in their FFT bin
	claimed   []uint64 // decode epochs: every claimed device
}

// truthOf is reader p's truth for an epoch in which it claims claim:
// one TriggeredFrom per claimed device, against the same centre,
// amplitude and wavelength Reader.query uses.
func truthOf(p *post, claim []*transponder.Device, decode bool) truth {
	var t truth
	var bins []int // decode epochs: each triggered device's FFT bin
	center := p.rd.Center()
	for _, d := range claim {
		if decode {
			t.claimed = append(t.claimed, d.ID())
		}
		if !d.TriggeredFrom(center, p.rd.QueryAmplitude, p.rd.Capture.Wavelength) {
			continue
		}
		t.triggered++
		if decode {
			t.single = append(t.single, d.ID())
			bins = append(bins, int(math.Round(d.CFO(p.rd.Params.ReaderLO)/fftBinHz)))
		}
	}
	alone := t.single[:0]
	for i, b := range bins {
		shared := 0
		for _, o := range bins {
			if o == b {
				shared++
			}
		}
		if shared == 1 {
			alone = append(alone, t.single[i])
		}
	}
	t.single = alone
	return t
}

// score tallies one reader-epoch's count, and on a decode epoch its
// decoded ids, against the truth its job carries. It is the one reader
// of job.truth, and runs after the report it scores is built.
func (p *post) score(job epochJob, count int, decoded []uint64) {
	t := job.truth
	for i := range p.tally.Count {
		if b := &p.tally.Count[i]; t.triggered >= b.Lo && t.triggered <= b.Hi {
			b.Epochs++
			b.Truth += t.triggered
			b.AbsErr += max(count-t.triggered, t.triggered-count)
			b.SignedErr += count - t.triggered
		}
	}
	if !job.decode {
		return
	}
	d := &p.tally.Decode
	d.Epochs++
	d.Single += len(t.single)
	d.Decodes += len(decoded)
	for _, id := range t.single {
		if slices.Contains(decoded, id) {
			d.Recalled++
		}
	}
	for _, id := range decoded {
		if !slices.Contains(t.claimed, id) {
			d.Wrong = append(d.Wrong, id)
		}
	}
}
