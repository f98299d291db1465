package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"caraoke/internal/phy"
	"caraoke/internal/rfsim"
)

func TestAnalyzeCapturesErrors(t *testing.T) {
	p := DefaultParams()
	if _, err := AnalyzeCaptures(nil, p); err == nil {
		t.Error("no captures accepted")
	}
	if _, err := AnalyzeCaptures([]*rfsim.MultiCapture{nil}, p); err == nil {
		t.Error("nil capture accepted")
	}
	a := &rfsim.MultiCapture{Antennas: [][]complex128{make([]complex128, 2048)}}
	b := &rfsim.MultiCapture{Antennas: [][]complex128{make([]complex128, 1024)}}
	if _, err := AnalyzeCaptures([]*rfsim.MultiCapture{a, b}, p); err == nil {
		t.Error("length mismatch accepted")
	}
	// A ragged capture — one antenna stream shorter or longer than
	// antenna 0 — would have its channel estimate scaled by 2/n of the
	// wrong n. It is refused, naming capture and antenna, whichever
	// capture of the window it is and on the single-capture path too,
	// and a warmed Scratch's previous result is left alone.
	s := newTestScene(t, 604)
	mcs := s.collideQueries(s.placedDevices(5), 4)
	var sc Scratch
	before, err := sc.AnalyzeCaptures(mcs, s.param, 1)
	if err != nil || len(before) == 0 {
		t.Fatalf("fixture: %d spikes, err %v", len(before), err)
	}
	want := copySpikes(before)
	for _, tc := range []struct{ capture, antenna, delta int }{{0, 1, -1}, {2, 2, +5}, {3, 1, -100}} {
		window := append([]*rfsim.MultiCapture(nil), mcs...)
		ragged := &rfsim.MultiCapture{}
		for a, st := range mcs[tc.capture].Antennas {
			if a == tc.antenna {
				st = append(st[:len(st):len(st)], make([]complex128, 100)...)[:len(st)+tc.delta]
			}
			ragged.Antennas = append(ragged.Antennas, st)
		}
		window[tc.capture] = ragged
		spikes, err := sc.AnalyzeCaptures(window, s.param, 1)
		if err == nil || spikes != nil {
			t.Fatalf("%+v: ragged capture accepted (%d spikes)", tc, len(spikes))
		}
		for _, part := range []string{fmt.Sprintf("capture %d", tc.capture), fmt.Sprintf("antenna %d", tc.antenna)} {
			if !strings.Contains(err.Error(), part) {
				t.Errorf("%+v: error %q does not name %s", tc, err, part)
			}
		}
		if _, err := sc.AnalyzeCapture(ragged, s.param); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("antenna %d", tc.antenna)) {
			t.Errorf("%+v: single-capture path: err %v", tc, err)
		}
		if _, err := AnalyzeCaptures([]*rfsim.MultiCapture{ragged}, s.param); err == nil {
			t.Errorf("%+v: one-capture window accepted", tc)
		}
		if !reflect.DeepEqual(before, want) {
			t.Fatalf("%+v: refused capture disturbed the previous result", tc)
		}
	}
}

// TestQuorumEarlyStop: over every sequence of per-capture verdicts for
// windows of 2…12 captures, classifying only while quorumOpen and then
// asking quorumMet gives the exhaustive vote's decision, and no sequence
// classifies a capture after the decision is settled. At ten captures a
// lone carrier stops after seven.
func TestQuorumEarlyStop(t *testing.T) {
	for k := 2; k <= 12; k++ {
		for seq := 0; seq < 1<<k; seq++ {
			all, votes, classified := 0, 0, 0
			for qi := 0; qi < k; qi++ {
				verdict := seq >> qi & 1
				all += verdict
				if quorumOpen(votes, qi, k) {
					classified++
					votes += verdict
				}
			}
			if got, want := quorumMet(votes, k), 10*all >= 4*k; got != want {
				t.Fatalf("k=%d verdicts %0*b: early-stopped vote says %v, exhaustive %v", k, k, seq, got, want)
			}
			if seq == 0 && k == 10 && classified != 7 {
				t.Errorf("k=10, no Multiple verdicts: classified %d captures, want 7", classified)
			}
		}
	}
}

func TestAnalyzeCapturesSingleFallsBack(t *testing.T) {
	// One capture must behave exactly like AnalyzeCapture.
	s := newTestScene(t, 601)
	devs := s.placedDevices(3)
	for i, d := range devs {
		d.CarrierHz = phy.BandLow + 200e3 + float64(i)*300e3
	}
	mc := s.collide(devs)
	one, err := AnalyzeCaptures([]*rfsim.MultiCapture{mc}, s.param)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := AnalyzeCapture(mc, s.param)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != len(direct) {
		t.Fatalf("single-capture path diverges: %d vs %d spikes", len(one), len(direct))
	}
}

func TestAnalyzeCapturesChannelsFromLastCapture(t *testing.T) {
	s := newTestScene(t, 602)
	devs := s.placedDevices(2)
	devs[0].CarrierHz = phy.BandLow + 300e3
	devs[1].CarrierHz = phy.BandLow + 800e3
	mcs := s.collideQueries(devs, 6)
	spikes, err := AnalyzeCaptures(mcs, s.param)
	if err != nil {
		t.Fatal(err)
	}
	if len(spikes) != 2 {
		t.Fatalf("%d spikes", len(spikes))
	}
	for _, sp := range spikes {
		if len(sp.Channels) != 3 {
			t.Fatalf("spike carries %d channels", len(sp.Channels))
		}
		for _, h := range sp.Channels {
			if h == 0 {
				t.Error("zero channel estimate")
			}
		}
	}
}

func TestSuppressResolvedNeighbors(t *testing.T) {
	binW := 1953.125
	spikes := []Spike{
		{Freq: 100 * binW, Multiple: true},
		{Freq: 102 * binW, Multiple: true}, // 2 bins away: same window bin
		{Freq: 300 * binW, Multiple: true}, // isolated: flag must survive
	}
	suppressResolvedNeighbors(spikes, binW)
	if spikes[0].Multiple || spikes[1].Multiple {
		t.Error("adjacent resolved spikes kept their Multiple flags")
	}
	if !spikes[2].Multiple {
		t.Error("isolated spike lost its Multiple flag")
	}
}

func TestCountAcrossQueriesMatchesGroundTruth(t *testing.T) {
	s := newTestScene(t, 603)
	devs := s.placedDevices(6)
	for i, d := range devs {
		d.CarrierHz = phy.BandLow + 100e3 + float64(i)*180e3
	}
	res, err := CountAcrossQueries(s.collideQueries(devs, 10), s.param)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 6 {
		t.Errorf("counted %d of 6", res.Count)
	}
}

// BenchmarkAnalyzeCaptures measures the multi-query DSP chain
// (per-capture transforms, then per-peak refinement) that Reader.Measure runs
// in the city harness. A persistent Scratch mirrors the reader's steady
// state: tables and buffers are warm after the first iteration.
func BenchmarkAnalyzeCaptures(b *testing.B) {
	s := newTestScene(b, 811)
	mcs := s.collideQueries(s.placedDevices(24), 10)
	var sc Scratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sc.AnalyzeCaptures(mcs, s.param, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectPeaks measures AnalyzeCaptures' first stage alone on
// the same window: two transforms per capture (the capture and its
// first half), the averaged spectrum and the peak search.
func BenchmarkDetectPeaks(b *testing.B) {
	s := newTestScene(b, 811)
	mcs := s.collideQueries(s.placedDevices(24), 10)
	var sc Scratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := sc.detectPeaks(mcs, s.param); err != nil {
			b.Fatal(err)
		}
	}
}
