package collector

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"caraoke/internal/telemetry"
)

// pipeListener hands a Server one end of a net.Pipe, then blocks in
// Accept until it is closed, as a listener nobody else dials does.
type pipeListener struct {
	conns     chan net.Conn
	closed    chan struct{}
	closeOnce sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.closeOnce.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// fuzzFrames concatenates one WriteBatch frame per batch.
func fuzzFrames(tb testing.TB, batches ...[]*telemetry.Report) []byte {
	var buf bytes.Buffer
	for _, rs := range batches {
		if err := telemetry.WriteBatch(&buf, rs); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// seqZeroFrame is one frame carrying r with its Seq patched to 0 and
// the CRC recomputed: bytes no encoder writes (telemetry refuses Seq 0
// at the sender), but a stream may carry.
func seqZeroFrame(tb testing.TB, r *telemetry.Report) []byte {
	b := fuzzFrames(tb, []*telemetry.Report{r})
	const header = 9                 // magic, version, payload length
	const seqAt = header + 4 + 4 + 4 // report count, length prefix, reader id
	binary.LittleEndian.PutUint32(b[seqAt:], 0)
	crc := crc32.Checksum(b[header:len(b)-4], crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc)
	return b
}

// FuzzServerStream writes arbitrary bytes into a Server's connection:
// no panic, Stop returns, and the store holds exactly the reports
// telemetry.ReadBatch accepts when looped over the same bytes up to its
// first error, deduped by (ReaderID, Seq) — so a frame the server
// rejects ingests nothing, and nothing after it is read.
func FuzzServerStream(f *testing.F) {
	one := fuzzFrames(f, []*telemetry.Report{robustReport(1, 1)})
	batch := fuzzFrames(f, []*telemetry.Report{robustReport(1, 1), robustReport(2, 1), robustReport(1, 2)})
	badCRC := slices.Clone(one)
	badCRC[len(badCRC)-1] ^= 0xFF
	v1 := slices.Clone(one)
	v1[4] = 1
	huge := slices.Clone(one[:9])
	binary.LittleEndian.PutUint32(huge[5:], telemetry.MaxBatchFrameSize+1)
	for _, seed := range [][]byte{
		nil,
		one,
		batch,
		fuzzFrames(f, []*telemetry.Report{robustReport(1, 1)}, []*telemetry.Report{robustReport(1, 1), robustReport(1, 2), robustReport(1, 2)}),
		// A seq-0 report is refused, and its frame ends the stream.
		append(append(slices.Clone(one), seqZeroFrame(f, robustReport(2, 1))...), fuzzFrames(f, []*telemetry.Report{robustReport(1, 2)})...),
		append(slices.Clone(one), badCRC...),
		append(slices.Clone(batch), v1...),
		append(slices.Clone(one), huge...),
		append(slices.Clone(one), batch[:len(batch)/2]...),
		append(slices.Clone(one), 0xFF, 0xFF, 0xFF),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The model.
		type key struct{ reader, seq uint32 }
		seen := map[key]bool{}
		want := map[uint32][][]byte{} // reader → its accepted reports, marshaled
		rd := bytes.NewReader(data)
		for {
			rs, err := telemetry.ReadBatch(rd)
			if err != nil {
				break
			}
			for _, r := range rs {
				if r.Seq == 0 {
					t.Fatalf("ReadBatch accepted a seq-0 report: %+v", r)
				}
				k := key{r.ReaderID, r.Seq}
				if seen[k] {
					continue
				}
				seen[k] = true
				b, err := r.Marshal()
				if err != nil {
					t.Fatalf("accepted report does not marshal: %v", err)
				}
				want[r.ReaderID] = append(want[r.ReaderID], b)
			}
		}

		store := NewStore(len(data) + 1) // more than the bytes can carry: nothing trims
		srv := NewServer(store)
		srv.Logf = func(string, ...any) {}
		ln := &pipeListener{conns: make(chan net.Conn, 1), closed: make(chan struct{})}
		client, server := net.Pipe()
		ln.conns <- server
		srv.ServeListener(ln)
		client.Write(data) // fails once the server drops a bad stream
		client.Close()
		stopped := make(chan struct{})
		go func() {
			srv.Stop()
			close(stopped)
		}()
		select {
		case <-stopped:
		case <-time.After(10 * time.Second):
			t.Fatal("Stop did not return")
		}

		if got := store.Readers(); len(got) != len(want) {
			t.Fatalf("store holds %d readers, ReadBatch accepts reports from %d", len(got), len(want))
		}
		for id, reports := range want {
			var got [][]byte
			for _, r := range store.historyFor(id) {
				b, err := r.Marshal()
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, b)
			}
			slices.SortFunc(got, bytes.Compare)
			slices.SortFunc(reports, bytes.Compare)
			if !slices.EqualFunc(got, reports, bytes.Equal) {
				t.Fatalf("reader %d: store holds %d reports, ReadBatch accepts %d distinct", id, len(got), len(reports))
			}
		}
	})
}
