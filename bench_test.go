// Benchmarks regenerating every table and figure of the paper's
// evaluation (§12). Each benchmark runs the corresponding experiment
// and reports its headline numbers as custom metrics, so
// `go test -bench=. -benchmem` reproduces the whole evaluation;
// cmd/caraoke-bench prints the full tables.
package caraoke

import (
	"testing"

	"caraoke/internal/experiments"
)

func BenchmarkFig04CollisionSpectrum(b *testing.B) {
	var detected int
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig04(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		detected = len(r.DetectedCFOs)
	}
	b.ReportMetric(float64(detected), "spikes_detected")
}

func BenchmarkTbl05CountingProbability(b *testing.B) {
	var mc20 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTbl05(int64(i+1), 20000)
		if err != nil {
			b.Fatal(err)
		}
		mc20 = r.MonteCarlo[2]
	}
	b.ReportMetric(100*mc20, "pct_no_miss_m20")
}

func BenchmarkFig08CoherentCombining(b *testing.B) {
	var sinr float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig08(int64(i+1), 16)
		if err != nil {
			b.Fatal(err)
		}
		sinr = r.SINRdB[15]
	}
	b.ReportMetric(sinr, "sinr_dB_at_16")
}

func BenchmarkFig11CountingAccuracy(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig11(int64(i+1), []int{5, 20, 40}, 4)
		if err != nil {
			b.Fatal(err)
		}
		acc = r.Accuracy[2]
	}
	b.ReportMetric(100*acc, "pct_accuracy_m40")
}

func BenchmarkFig12TrafficMonitoring(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig12(int64(i+1), 2)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(r.TotalC) / float64(r.TotalA+1)
	}
	b.ReportMetric(ratio, "streetC_over_A_load")
}

func BenchmarkFig13LocalizationAccuracy(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig13(int64(i+1), 4)
		if err != nil {
			b.Fatal(err)
		}
		avg = 0
		for _, m := range r.MeanDeg {
			avg += m
		}
		avg /= float64(len(r.MeanDeg))
	}
	b.ReportMetric(avg, "mean_aoa_err_deg")
}

func BenchmarkFig14MultipathProfile(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig14(int64(i+1), 20)
		if err != nil {
			b.Fatal(err)
		}
		ratio = r.MedianRatio
	}
	b.ReportMetric(ratio, "los_peak_ratio")
}

func BenchmarkFig15SpeedAccuracy(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig15(int64(i+1), nil, 10)
		if err != nil {
			b.Fatal(err)
		}
		worst = r.MaxRelError
	}
	b.ReportMetric(100*worst, "pct_max_speed_err")
}

func BenchmarkFig16IdentificationTime(b *testing.B) {
	var pair float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig16(int64(i+1), []int{2, 5}, 3, 150)
		if err != nil {
			b.Fatal(err)
		}
		pair = r.MeanMillis[0]
	}
	b.ReportMetric(pair, "pair_decode_ms")
}

func BenchmarkTbl07SpeedErrorBound(b *testing.B) {
	var bound float64
	for i := 0; i < b.N; i++ {
		bound = experiments.RunTbl07().ErrAt50
	}
	b.ReportMetric(100*bound, "pct_bound_50mph")
}

func BenchmarkTbl09ReaderMAC(b *testing.B) {
	var harmful int
	for i := 0; i < b.N; i++ {
		harmful = experiments.RunTbl09(int64(i + 1)).With.QueryResponseOverlaps
	}
	b.ReportMetric(float64(harmful), "harmful_collisions_csma")
}

func BenchmarkTbl12PowerBudget(b *testing.B) {
	var margin float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTbl12()
		if err != nil {
			b.Fatal(err)
		}
		margin = r.Margin
	}
	b.ReportMetric(margin, "solar_margin_x")
}
