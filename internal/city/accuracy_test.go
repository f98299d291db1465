package city

import (
	"bufio"
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// referenceSeeds is how many seeds of the reference city the score
// tests read: seeds 1 to referenceSeeds.
const referenceSeeds = 5

// referenceScores memoizes the reference city's Result.Score per seed:
// 8 readers, 200 vehicles, 30 s, default decoding. The §5 and §8 floor
// tests, the §7 ceilings and the score ledger read the same runs.
var referenceScores = map[int64]Score{}

func referenceScore(t *testing.T, seed int64) Score {
	t.Helper()
	if sc, ok := referenceScores[seed]; ok {
		return sc
	}
	res, err := Run(Config{Readers: 8, Vehicles: 200, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	referenceScores[seed] = res.Score
	return res.Score
}

// logScore logs the score lines of one part ("§5", "§8", "§7") of a
// seed's score, as caraoke-sim prints them.
func logScore(t *testing.T, seed int64, sc Score, part string) {
	t.Helper()
	for _, l := range sc.Lines() {
		if strings.HasPrefix(l, "score: "+part+" ") {
			t.Logf("seed %d %s", seed, l)
		}
	}
}

// bound is one line of testdata/bounds.txt.
type bound struct {
	name  string
	floor bool // ">=": a seed's value may not fall under value; "<=" a ceiling
	value float64
	seeds []int64
}

// covers reports whether the bound holds seed.
func (b bound) covers(seed int64) bool { return slices.Contains(b.seeds, seed) }

// check fails t when the bound covers seed and v breaks it, and
// reports whether v holds.
func (b bound) check(t *testing.T, seed int64, what string, v float64) bool {
	t.Helper()
	if !b.covers(seed) || b.floor && v >= b.value || !b.floor && v <= b.value {
		return true
	}
	side := "under its floor"
	if !b.floor {
		side = "over its ceiling"
	}
	t.Errorf("seed %d: %s %.4g %s %s %g", seed, what, v, side, b.name, b.value)
	return false
}

// boundSections are the sections of testdata/bounds.txt, the part of a
// name before its first dot: one per test that owns them.
var boundSections = []string{
	"count",  // TestCountAccuracyFloor
	"decode", // TestDecodedIDsAreFleetIDs
	"speed",  // TestSpeedErrorCeiling
}

// readBounds parses testdata/bounds.txt: "name op value seeds" a line,
// op ">=" or "<=", seeds a comma list of seeds and lo-hi ranges, "#"
// comments.
func readBounds(t *testing.T) map[string]bound {
	t.Helper()
	f, err := os.Open("testdata/bounds.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	table := map[string]bound{}
	scan := bufio.NewScanner(f)
	for n := 1; scan.Scan(); n++ {
		fields := strings.Fields(scan.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("bounds.txt:%d: %s", n, fmt.Sprintf(format, args...))
		}
		if len(fields) != 4 {
			fail("want name, op, value and seeds, got %q", scan.Text())
		}
		b := bound{name: fields[0], floor: fields[1] == ">="}
		if section, _, _ := strings.Cut(b.name, "."); !slices.Contains(boundSections, section) {
			fail("%s: no test owns section %q", b.name, section)
		}
		if _, dup := table[b.name]; dup {
			fail("%s bound twice", b.name)
		}
		if !b.floor && fields[1] != "<=" {
			fail("%s: op %q is neither >= nor <=", b.name, fields[1])
		}
		if b.value, err = strconv.ParseFloat(fields[2], 64); err != nil {
			fail("%s: %v", b.name, err)
		}
		for _, part := range strings.Split(fields[3], ",") {
			lo, hi, isRange := strings.Cut(part, "-")
			if !isRange {
				hi = lo
			}
			l, errL := strconv.ParseInt(lo, 10, 64)
			h, errH := strconv.ParseInt(hi, 10, 64)
			if errL != nil || errH != nil || l < 1 || h < l || h > referenceSeeds {
				fail("%s: seeds %q are not seeds within 1-%d", b.name, part, referenceSeeds)
			}
			for s := l; s <= h; s++ {
				b.seeds = append(b.seeds, s)
			}
		}
		table[b.name] = b
	}
	if err := scan.Err(); err != nil {
		t.Fatal(err)
	}
	return table
}

// bounds returns the lookup of section's lines in testdata/bounds.txt:
// line(name) is the bound section.name, and a name the table lacks
// fails t. When t ends, each line of the section it never looked up
// fails t too.
func bounds(t *testing.T, section string) func(name string) bound {
	t.Helper()
	table := readBounds(t)
	unread := map[string]bool{}
	for name := range table {
		if strings.HasPrefix(name, section+".") {
			unread[name] = true
		}
	}
	missing := false
	t.Cleanup(func() {
		if missing {
			return
		}
		for _, name := range slices.Sorted(maps.Keys(unread)) {
			t.Errorf("bounds.txt: no check of %s reads %s", t.Name(), name)
		}
	})
	return func(name string) bound {
		t.Helper()
		b, ok := table[section+"."+name]
		if !ok {
			missing = true
			t.Fatalf("bounds.txt has no line %s.%s", section, name)
		}
		delete(unread, b.name)
		return b
	}
}

// TestCountAccuracyFloor pins the city's §5 count against the
// simulator's truth on the reference city, read from Result.Score:
// accuracy 1 − Σ|err|/Σtruth per truth bin, and no phantom car on an
// empty scene, each against its line of testdata/bounds.txt. The bins
// say where the counter loses cars — dense scenes undercount — and a
// change that moves a count moves them; raise a floor it lifts, never
// lower one. A seed the line does not cover is logged, not floored.
func TestCountAccuracyFloor(t *testing.T) {
	line := bounds(t, "count")
	bins := newScore().Count
	limits := make([]bound, len(bins))
	limits[0] = line("phantom")
	for b := 1; b < len(bins); b++ {
		limits[b] = line("accuracy." + strings.NewReplacer("–", "-", " ", "").Replace(bins[b].Name()))
	}
	for seed := int64(1); seed <= referenceSeeds; seed++ {
		sc := referenceScore(t, seed)
		logScore(t, seed, sc, "§5")
		for b, bin := range sc.Count {
			switch {
			case bin.Epochs == 0:
				if limits[b].covers(seed) {
					t.Errorf("seed %d, truth %s: no reader-epoch in the bin", seed, bin.Name())
				}
			case b == 0:
				limits[b].check(t, seed, "phantom cars on empty scenes", float64(bin.AbsErr))
			default:
				limits[b].check(t, seed, "truth "+bin.Name()+" accuracy", bin.Accuracy())
			}
		}
	}
}

// TestDecodedIDsAreFleetIDs scores the §8 decodes of the reference city,
// read from Result.Score: every id a reader decodes must be a device it
// claimed that epoch — a frame that passes its CRC with the wrong id is
// named, not forgiven — and recall (decoded ÷ triggered devices alone
// in their FFT bin) holds its floor, each against its line of
// testdata/bounds.txt.
func TestDecodedIDsAreFleetIDs(t *testing.T) {
	line := bounds(t, "decode")
	recall, wrong := line("recall"), line("wrong")
	for seed := int64(1); seed <= referenceSeeds; seed++ {
		sc := referenceScore(t, seed)
		d := sc.Decode
		if d.Decodes == 0 || d.Single == 0 {
			t.Fatalf("seed %d: %d decodes of %d single-occupancy devices: the check is vacuous", seed, d.Decodes, d.Single)
		}
		logScore(t, seed, sc, "§8")
		if !wrong.check(t, seed, "wrong ids", float64(len(d.Wrong))) {
			for _, id := range d.Wrong {
				t.Errorf("seed %d: decoded id %#x is no device its reader claimed", seed, id)
			}
		}
		recall.check(t, seed, "recall", d.Recall())
	}
}

// TestSpeedErrorCeiling scores the §7 speed answers of the reference
// city, read from Result.Score: per seed, |answer − true speed| at p50
// and p90, the share of answers flagged SPEEDING for a car at or under
// the limit, and the answers whose decoded id names another car, each
// against its line of testdata/bounds.txt. Lower a ceiling a change
// beats; never raise one.
func TestSpeedErrorCeiling(t *testing.T) {
	line := bounds(t, "speed")
	p50, p90 := line("p50"), line("p90")
	falseShare, wrongIDs := line("false_share"), line("wrong_ids")
	for seed := int64(1); seed <= referenceSeeds; seed++ {
		sc := referenceScore(t, seed)
		v := sc.Speed
		if v.Answers == 0 {
			t.Fatalf("seed %d: no speed answer: the check is vacuous", seed)
		}
		logScore(t, seed, sc, "§7")
		p50.check(t, seed, "|error| p50 (m/s)", v.P50)
		p90.check(t, seed, "|error| p90 (m/s)", v.P90)
		falseShare.check(t, seed, "false SPEEDING share", float64(v.FalseSpeeding)/float64(v.Answers))
		wrongIDs.check(t, seed, "answers naming another car", float64(v.WrongIDs))
	}
}

// TestScoreLedger holds testdata/golden/score.txt, the reference city's
// score lines for every seed the tests above read, to those runs. A
// change that moves the score rewrites the ledger (update.sh there), and
// its diff shows the lines each seed moved.
func TestScoreLedger(t *testing.T) {
	const ledger = "../../testdata/golden/score.txt"
	raw, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	var got []string
	for seed := int64(1); seed <= referenceSeeds; seed++ {
		for _, l := range referenceScore(t, seed).Lines() {
			got = append(got, fmt.Sprintf("seed %d %s", seed, l))
		}
	}
	if slices.Equal(got, want) {
		return
	}
	for i := range max(len(got), len(want)) {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n  ledger %q\n  run    %q", ledger, i+1, w, g)
		}
	}
	t.Error("a change that moves the score runs `bash testdata/golden/update.sh` and commits score.txt")
}
