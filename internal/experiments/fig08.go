package experiments

import (
	"math"

	"caraoke/internal/core"
	"caraoke/internal/dsp"
)

// Fig08Result reproduces Fig 8: coherent combining of repeated
// collisions raises the target transponder's signal out of the
// interference. We quantify the figure's visual with the target's
// post-combining SINR and with whether its frame decodes, as a
// function of the number of averaged replies.
type Fig08Result struct {
	N         []int     // replies combined
	SINRdB    []float64 // target envelope power over residual
	Decodable []bool    // frame passes its checksum
}

// RunFig08 combines up to maxN replies of a five-transponder collision
// for one target and measures SINR after each.
func RunFig08(seed int64, maxN int) (*Fig08Result, error) {
	s, err := newScene(seed)
	if err != nil {
		return nil, err
	}
	devs := s.ringDevices(5, 800)
	// Ground-truth envelope of the target (device 0).
	mc0, err := s.rd.Query(devs, s.rng)
	if err != nil {
		return nil, err
	}
	spikes, err := core.AnalyzeCapture(mc0, s.rd.Params)
	if err != nil {
		return nil, err
	}
	// Match the target's spike by CFO.
	targetCFO := devs[0].CFO(s.rd.Params.ReaderLO)
	sp, found := spikeNear(spikes, targetCFO)
	freq := sp.Freq
	if !found {
		freq = dsp.RefineFreq(mc0.Antennas[0], dsp.Peak{Freq: targetCFO})
	}
	env, err := devs[0].Reply(s.rd.Params.ReaderLO, s.rd.Params.SampleRate, 0, s.rng)
	if err != nil {
		return nil, err
	}
	truth := env.Envelope

	dec := core.NewDecoder(freq)
	res := &Fig08Result{}
	sum := make([]float64, len(truth))
	for n := 1; n <= maxN; n++ {
		mc, err := s.rd.Query(devs, s.rng)
		if err != nil {
			return nil, err
		}
		if err := dec.Add(mc.Antennas[0]); err != nil {
			return nil, err
		}
		_, decErr := dec.TryDecode()
		// SINR: project the accumulated real envelope onto the truth.
		// The decoder's internal state is private; recompute the
		// combination here for measurement purposes.
		spike := dsp.Goertzel(mc.Antennas[0], freq/s.rd.Params.SampleRate)
		h := spike * complex(2/float64(len(truth)), 0)
		w := complex(1, 0)
		rot := complexExp(-2 * math.Pi * freq / s.rd.Params.SampleRate)
		inv := 1 / h
		for i, v := range mc.Antennas[0] {
			sum[i] += real(v * w * inv)
			w *= rot
		}
		var sig, noise float64
		for i := range sum {
			want := float64(n) * truth[i]
			d := sum[i] - want
			sig += want * want
			noise += d * d
		}
		sinr := math.Inf(1)
		if noise > 0 {
			sinr = 10 * math.Log10(sig/noise)
		}
		res.N = append(res.N, n)
		res.SINRdB = append(res.SINRdB, sinr)
		res.Decodable = append(res.Decodable, decErr == nil)
	}
	return res, nil
}

func complexExp(phase float64) complex128 {
	s, c := math.Sincos(phase)
	return complex(c, s)
}

// Table renders SINR growth.
func (r *Fig08Result) Table() *Table {
	t := &Table{
		Title:   "Fig 8 — coherent combining of collisions (5 transponders, target #1)",
		Columns: []string{"replies combined", "target SINR (dB)", "frame decodes"},
	}
	for i, n := range r.N {
		dec := "no"
		if r.Decodable[i] {
			dec = "yes"
		}
		t.Cells = append(t.Cells, []string{f1(float64(n)), f1(r.SINRdB[i]), dec})
	}
	t.Notes = append(t.Notes,
		"paper: bits become visible after ~16 averages; SINR grows ≈10·log10(N) dB as the target adds coherently")
	return t
}
