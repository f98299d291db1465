// Package experiments reproduces every table and figure of the
// paper's evaluation (§12) plus its analytical claims, using the
// simulation substrates. Each experiment returns a structured result
// with a Table method for tabular rendering; All is the registry
// cmd/caraoke-bench loops over to print them.
package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"caraoke/internal/core"
	"caraoke/internal/geom"
	"caraoke/internal/reader"
	"caraoke/internal/transponder"
)

// Table is a generic experiment output.
type Table struct {
	Title   string
	Columns []string
	Cells   [][]string
	// Notes carries paper-vs-measured commentary.
	Notes []string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Cells {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Cells {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// scene is the shared experimental fixture: a reader on a pole beside a
// road, and the one random stream its devices and captures draw from.
type scene struct {
	rd  *reader.Reader
	rng *rand.Rand
}

func newScene(seed int64) (*scene, error) {
	rd, err := reader.New(reader.Config{
		ID: 1, PoleBase: geom.V(0, -5, 0), PoleHeight: 3.8,
		RoadDir: geom.V(1, 0, 0), TiltDeg: 60, NoiseSigma: 2e-6,
	})
	if err != nil {
		return nil, err
	}
	return &scene{rd: rd, rng: rand.New(rand.NewSource(seed))}, nil
}

// ringDevices places m population-sampled transponders on a ring of
// comparable distances around the pole — the amplitude regime of the
// paper's Fig 11 methodology (individually collected signals summed in
// post-processing). All of them are inside the reader's trigger range,
// so rd.Query collides every one.
func (s *scene) ringDevices(m int, firstSerial uint64) []*transponder.Device {
	devs := transponder.NewPopulation(transponder.DefaultPopulationParams(), m, firstSerial, s.rng)
	for _, d := range devs {
		ang := s.rng.Float64() * 2 * math.Pi
		rad := 12 + s.rng.Float64()*6
		d.Pos = geom.V(rad*math.Cos(ang), -5+rad*math.Sin(ang), 0)
	}
	return devs
}

// spikeNear returns the first spike within 3 kHz of a device's true
// CFO: the pipeline's view of that device, if it found one.
func spikeNear(spikes []core.Spike, cfo float64) (core.Spike, bool) {
	for _, sp := range spikes {
		if math.Abs(sp.Freq-cfo) < 3000 {
			return sp, true
		}
	}
	return core.Spike{}, false
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string {
	return fmt.Sprintf("%.1f%%", 100*v)
}
