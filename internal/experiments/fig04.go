package experiments

import (
	"fmt"
	"math"

	"caraoke/internal/core"
	"caraoke/internal/dsp"
)

// Fig04Result reproduces Fig 4: the Fourier transform of a collision of
// five transponders shows five spikes at the devices' CFOs.
type Fig04Result struct {
	// TrueCFOs are the devices' ground-truth offsets, Hz.
	TrueCFOs []float64
	// DetectedCFOs are the spikes the pipeline found, Hz.
	DetectedCFOs []float64
	// Spectrum is the normalized power versus frequency over the
	// 0–1.2 MHz span (the figure's curve), subsampled for printing.
	SpectrumFreqs []float64
	SpectrumPower []float64
}

// RunFig04 synthesizes a five-transponder collision and extracts its
// spectrum and spikes.
func RunFig04(seed int64) (*Fig04Result, error) {
	s, err := newScene(seed)
	if err != nil {
		return nil, err
	}
	devs := s.ringDevices(5, 100)
	res := &Fig04Result{}
	for _, d := range devs {
		res.TrueCFOs = append(res.TrueCFOs, d.CFO(s.rd.Params.ReaderLO))
	}
	mc, err := s.rd.Query(devs, s.rng)
	if err != nil {
		return nil, err
	}
	spec := dsp.NewSpectrum(mc.Antennas[0], s.rd.Params.SampleRate)
	maxP := 0.0
	limit := spec.FreqBin(1.2e6)
	for k := 0; k <= limit; k++ {
		if p := spec.Power(k); p > maxP {
			maxP = p
		}
	}
	for k := 0; k <= limit; k++ {
		res.SpectrumFreqs = append(res.SpectrumFreqs, spec.BinFreq(k))
		res.SpectrumPower = append(res.SpectrumPower, spec.Power(k)/maxP)
	}
	spikes, err := core.AnalyzeCapture(mc, s.rd.Params)
	if err != nil {
		return nil, err
	}
	for _, sp := range spikes {
		res.DetectedCFOs = append(res.DetectedCFOs, sp.Freq)
	}
	return res, nil
}

// Table renders the detection summary.
func (r *Fig04Result) Table() *Table {
	t := &Table{
		Title:   "Fig 4 — collision spectrum of 5 transponders",
		Columns: []string{"transponder", "true CFO (kHz)", "detected (kHz)"},
	}
	for i, cfo := range r.TrueCFOs {
		det := "—"
		for _, d := range r.DetectedCFOs {
			if math.Abs(d-cfo) < 3000 {
				det = f1(d / 1e3)
				break
			}
		}
		t.Cells = append(t.Cells, []string{fmt.Sprintf("%d", i+1), f1(cfo / 1e3), det})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("paper: 5 visible spikes; measured: %d detected", len(r.DetectedCFOs)))
	return t
}
