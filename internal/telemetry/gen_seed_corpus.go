//go:build ignore

// gen_seed_corpus regenerates the checked-in fuzz seed corpus under
// testdata/fuzz/. Run from this directory:
//
//	go run gen_seed_corpus.go
//
// The seeds mirror fuzzSeedReports in fuzz_test.go: an empty report, a
// typical multi-spike report, and an extreme-values report, in both
// payload (FuzzReportRoundTrip) and framed (FuzzFrameRoundTrip) form —
// each as a frame of one, all three as one frame, and the typical
// report's frame under the retired version byte 1, which the reader
// must reject.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"time"

	"caraoke/internal/telemetry"
)

func main() {
	reports := []*telemetry.Report{
		{},
		{
			ReaderID:  7,
			Seq:       42,
			Timestamp: time.Date(2015, 8, 17, 8, 0, 1, 500, time.UTC),
			Count:     3,
			Spikes: []telemetry.SpikeRecord{
				{FreqHz: 214.5e3, Channels: []complex128{complex(0.5, -0.25), complex(-1, 2)}},
				{FreqHz: 812.25e3, Multiple: true, DecodedID: 0xE5A1910DB480015, Channels: []complex128{complex(3, 4)}},
			},
		},
		{
			ReaderID:  math.MaxUint32,
			Seq:       math.MaxUint32,
			Timestamp: time.Unix(0, math.MinInt64),
			Count:     -1,
			Spikes:    []telemetry.SpikeRecord{{FreqHz: math.Inf(1), Channels: []complex128{complex(math.NaN(), math.Inf(-1))}}},
		},
	}
	for i, r := range reports {
		payload, err := r.Marshal()
		if err != nil {
			log.Fatal(err)
		}
		write("FuzzReportRoundTrip", fmt.Sprintf("seed-report-%d", i), payload)
		write("FuzzFrameRoundTrip", fmt.Sprintf("seed-frame-%d", i), frame(r))
	}
	write("FuzzFrameRoundTrip", "seed-frame-all", frame(reports...))
	v1 := frame(reports[1])
	v1[4] = 1 // the retired version byte on an otherwise valid frame
	write("FuzzFrameRoundTrip", "seed-frame-v1", v1)
}

func frame(rs ...*telemetry.Report) []byte {
	var buf bytes.Buffer
	if err := telemetry.WriteBatch(&buf, rs); err != nil {
		log.Fatal(err)
	}
	return buf.Bytes()
}

func write(fuzzName, seedName string, data []byte) {
	dir := filepath.Join("testdata", "fuzz", fuzzName)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	// Go fuzz corpus file format, version 1.
	content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
	if err := os.WriteFile(filepath.Join(dir, seedName), []byte(content), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d bytes)\n", filepath.Join(dir, seedName), len(data))
}
