package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestFig04FiveSpikes(t *testing.T) {
	r, err := RunFig04(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.TrueCFOs) != 5 {
		t.Fatalf("%d true CFOs", len(r.TrueCFOs))
	}
	// Every true CFO must have a detected spike within ~1.5 bins.
	for _, cfo := range r.TrueCFOs {
		found := false
		for _, d := range r.DetectedCFOs {
			if math.Abs(d-cfo) < 3000 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("CFO %.1f kHz not detected", cfo/1e3)
		}
	}
	if len(r.SpectrumFreqs) == 0 || len(r.SpectrumFreqs) != len(r.SpectrumPower) {
		t.Error("spectrum series malformed")
	}
	if !strings.Contains(r.Table().Render(), "Fig 4") {
		t.Error("table rendering broken")
	}
}

func TestTbl05MatchesPaperAnalysis(t *testing.T) {
	r, err := RunTbl05(2, 20000)
	if err != nil {
		t.Fatal(err)
	}
	// Eq 7 analytic values from the paper: 98%, 93%, 73%.
	wantNaive := []float64{0.98, 0.93, 0.73}
	for i := range r.M {
		if math.Abs(r.NaiveEq7[i]-wantNaive[i]) > 0.01 {
			t.Errorf("m=%d: Eq7 = %.3f, paper %.2f", r.M[i], r.NaiveEq7[i], wantNaive[i])
		}
	}
	// Eq 9 bound: ≥ 99.9/99.9/99.7 %.
	wantBound := []float64{0.999, 0.999, 0.997}
	for i := range r.M {
		if r.BoundEq9[i] < wantBound[i]-0.0005 {
			t.Errorf("m=%d: Eq9 bound = %.4f, paper ≥ %.3f", r.M[i], r.BoundEq9[i], wantBound[i])
		}
	}
	// Monte-Carlo with the concentrated empirical population is lower
	// than uniform but should match the paper's 99.9/99.5/95.3 within
	// a few points.
	wantMC := []float64{0.999, 0.995, 0.953}
	for i := range r.M {
		if math.Abs(r.MonteCarlo[i]-wantMC[i]) > 0.04 {
			t.Errorf("m=%d: Monte-Carlo = %.3f, paper %.3f", r.M[i], r.MonteCarlo[i], wantMC[i])
		}
	}
}

func TestFig08SINRGrows(t *testing.T) {
	r, err := RunFig08(3, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.N) != 16 {
		t.Fatalf("%d points", len(r.N))
	}
	if r.SINRdB[15] <= r.SINRdB[0] {
		t.Errorf("SINR did not grow: %.1f dB → %.1f dB", r.SINRdB[0], r.SINRdB[15])
	}
	if !r.Decodable[15] {
		t.Error("frame still undecodable after 16 averages (paper: decodable)")
	}
}

func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r, err := RunFig11(4, []int{5, 20, 40, 45}, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Floors on the ring, pinned with margin under what this seed reads
	// (1.000, 0.967, 0.900 at m = 5, 20, 40; seeds 5 and 6 read within
	// 0.07 of that). The paper claims over 99 % below 40: the gap at 40
	// is what ROADMAP item 14 measures, and these floors keep it from
	// widening unseen.
	for i, floor := range []float64{0.95, 0.90, 0.80} {
		if r.Accuracy[i] < floor {
			t.Errorf("accuracy at m=%d is %.3f, want ≥%.2f", r.M[i], r.Accuracy[i], floor)
		}
	}
	// The 1-query column is the detector behind the public
	// caraoke.Count/Analyze, and it is far worse: this seed reads 0.833
	// and 0.517 at m = 5 and 20 (seeds 5 and 6: 0.700/0.458 and
	// 0.867/0.700); `caraoke-bench -only fig11 -runs 25` dips to 39.6 %
	// at m = 10 with a mean bias of +6.2 cars, the relaxed sweep's
	// ghosts (ROADMAP item 12, the single-capture detector). Floors with
	// margin, so item 12 starts from a number that cannot widen unseen.
	for i, floor := range []float64{0.70, 0.40} {
		if r.AccuracySingle[i] < floor {
			t.Errorf("1-query accuracy at m=%d is %.3f, want ≥%.2f", r.M[i], r.AccuracySingle[i], floor)
		}
	}
	if r.Accuracy[3] > r.Accuracy[0] {
		t.Errorf("accuracy should degrade with m: %.3f at 5 vs %.3f at 45", r.Accuracy[0], r.Accuracy[3])
	}
	// Multi-query generally beats single-query at high m; allow
	// sampling noise at this Monte-Carlo depth.
	if r.Accuracy[3] < r.AccuracySingle[3]-0.08 {
		t.Errorf("multi-query (%.3f) far worse than single (%.3f) at m=45", r.Accuracy[3], r.AccuracySingle[3])
	}
	// The table's note names the m where the ablation wins (45 here)
	// instead of claiming it never does.
	notes := strings.Join(r.Table().Notes, "\n")
	if strings.Contains(notes, "everywhere") || !strings.Contains(notes, "single-query beats multi-query at m = 45") {
		t.Errorf("Fig 11 note does not follow its rows: %q", notes)
	}
}

func TestFig12TrafficPattern(t *testing.T) {
	r, err := RunFig12(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.TimeSec) == 0 {
		t.Fatal("no samples")
	}
	if r.TotalC <= r.TotalA {
		t.Errorf("street C (%d) not busier than A (%d)", r.TotalC, r.TotalA)
	}
	// Queue dynamics on C: the max during red must exceed the min
	// during green (backlog builds and clears).
	maxRed, minGreen := 0, 1<<30
	for i := range r.TimeSec {
		if r.PhaseC[i] == 2 { // Red
			if r.CountC[i] > maxRed {
				maxRed = r.CountC[i]
			}
		} else if r.PhaseC[i] == 0 { // Green
			if r.CountC[i] < minGreen {
				minGreen = r.CountC[i]
			}
		}
	}
	if maxRed <= minGreen {
		t.Errorf("no red-light backlog: max during red %d, min during green %d", maxRed, minGreen)
	}
}

func TestFig13AoAAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r, err := RunFig13(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Spot) != 6 {
		t.Fatalf("%d spots", len(r.Spot))
	}
	var avg float64
	for _, m := range r.MeanDeg {
		avg += m
	}
	avg /= float64(len(r.MeanDeg))
	if avg > 6 {
		t.Errorf("average AoA error %.2f°, paper ≈4°", avg)
	}
}

func TestFig14LoSDominates(t *testing.T) {
	r, err := RunFig14(7, 20)
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanRatio < 5 {
		t.Errorf("mean peak ratio %.1f, paper ≈27", r.MeanRatio)
	}
	if len(r.AnglesDeg) == 0 {
		t.Error("no representative profile")
	}
}

func TestFig15WithinPaperError(t *testing.T) {
	r, err := RunFig15(8, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxRelError > 0.10 {
		t.Errorf("max relative speed error %.3f, paper ≤0.08", r.MaxRelError)
	}
}

func TestFig16DecodingTimeGrows(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r, err := RunFig16(9, []int{1, 2, 5}, 5, 150)
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanMillis[2] <= r.MeanMillis[0] {
		t.Errorf("identification time did not grow: %v", r.MeanMillis)
	}
	if r.MeanMillis[1] > 25 {
		t.Errorf("pair decode %.1f ms, paper ≈4.2 ms", r.MeanMillis[1])
	}
	if r.Failures > 2 {
		t.Errorf("%d decode failures", r.Failures)
	}
}

// TestFig16NoDecodePrintsDash: at a collision size where no run decodes
// within the budget, the table prints "—", not a 0.0 ms identification
// time.
func TestFig16NoDecodePrintsDash(t *testing.T) {
	r, err := RunFig16(9, []int{10}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failures != 2 {
		t.Fatalf("%d of 2 runs failed to decode in one query; the fixture needs all to fail", r.Failures)
	}
	row := r.Table().Cells[0]
	if row[1] != "—" || row[2] != "—" {
		t.Errorf("row with no decode renders mean %q, max %q; want —", row[1], row[2])
	}
}

func TestTbl07MatchesPaper(t *testing.T) {
	r := RunTbl07()
	if math.Abs(r.MaxXErrorFt-8.5) > 0.35 {
		t.Errorf("position bound %.2f ft, paper 8.5", r.MaxXErrorFt)
	}
	if r.ErrAt20 > 0.06 || r.ErrAt50 > 0.075 {
		t.Errorf("speed bounds %.3f/%.3f, paper 0.055/0.068", r.ErrAt20, r.ErrAt50)
	}
}

func TestTbl09MACClaims(t *testing.T) {
	r := RunTbl09(10)
	if r.Without.QueryResponseOverlaps == 0 {
		t.Error("contention model produced no collisions without CSMA")
	}
	if r.With.QueryResponseOverlaps != 0 {
		t.Errorf("CSMA left %d harmful collisions", r.With.QueryResponseOverlaps)
	}
}

func TestTbl12PowerBudget(t *testing.T) {
	r, err := RunTbl12()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.AverageW-0.009) > 0.0005 {
		t.Errorf("average %.4f W, paper 9 mW", r.AverageW)
	}
	if r.Margin < 50 || r.Margin > 60 {
		t.Errorf("margin %.0f×, paper 56×", r.Margin)
	}
	days := r.BatteryRun.Hours() / 24
	if days < 6 || days > 8 {
		t.Errorf("battery run %.1f days, paper ≈1 week", days)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:   "t",
		Columns: []string{"a", "bb"},
		Cells:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"n"},
	}
	out := tab.Render()
	for _, want := range []string{"== t ==", "a", "bb", "333", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestRegistryRunsEveryExperiment: each registered experiment has a
// unique name and renders a titled, non-empty table at the smallest
// Monte-Carlo depth — the registry is all caraoke-bench knows.
func TestRegistryRunsEveryExperiment(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range All {
		if seen[e.Name] {
			t.Errorf("experiment %q registered twice", e.Name)
		}
		seen[e.Name] = true
		tab, err := e.Run(1, 1)
		if err != nil {
			t.Errorf("%s: %v", e.Name, err)
			continue
		}
		if tab.Title == "" || len(tab.Cells) == 0 {
			t.Errorf("%s: empty table %+v", e.Name, tab)
		}
	}
	if len(All) != 12 {
		t.Errorf("registry holds %d experiments, the evaluation has 12", len(All))
	}
}
