package mmqjp

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload"
)

// snapshotWorkload builds the shared differential fixture: RSS queries with
// finite windows (so GC runs mid-stream) and a document stream.
func snapshotWorkload(nq, ndocs int) ([]string, []*Document) {
	gen := workload.DefaultRSS()
	qrng := rand.New(rand.NewSource(3))
	var sources []string
	for _, q := range gen.Queries(qrng, nq) {
		sources = append(sources, strings.Replace(q.Source, "INF", "60", 1))
	}
	srng := rand.New(rand.NewSource(11))
	return sources, gen.Stream(srng, ndocs)
}

// TestEngineSnapshotRestoreDifferential is the durability requirement: an
// engine restored from a mid-stream snapshot — after subscription churn, so
// the snapshot holds id gaps — must produce byte-identical per-document
// match output to the engine that never restarted, across restore-side
// Workers × PipelineDepth settings.
func TestEngineSnapshotRestoreDifferential(t *testing.T) {
	sources, stream := snapshotWorkload(60, 150)
	const cut = 75

	live := New(Options{Processor: ProcessorViewMat})
	var ids []QueryID
	for _, src := range sources {
		ids = append(ids, live.MustSubscribe(src))
	}
	live.PublishBatch("S", stream[:cut])
	// Churn before the snapshot: ids 20..39 unsubscribe, leaving gaps the
	// snapshot must preserve so survivors keep their ids.
	for _, id := range ids[20:40] {
		if err := live.Unsubscribe(id); err != nil {
			t.Fatal(err)
		}
	}

	var store MemStore
	if err := live.SnapshotTo(&store); err != nil {
		t.Fatal(err)
	}
	var ref []string
	for _, d := range stream[cut:] {
		ref = append(ref, renderEngineMatches(live.Publish("S", d)))
	}

	for _, opts := range []Options{
		{Processor: ProcessorViewMat},
		{Processor: ProcessorMMQJP},
		{Processor: ProcessorViewMat, Parallelism: 4, PipelineDepth: 2},
	} {
		restored, err := OpenEngineFrom(&store, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := restored.NumQueries(), live.NumQueries(); got != want {
			t.Fatalf("opts=%+v: restored NumQueries = %d, want %d", opts, got, want)
		}
		for _, id := range append(append([]QueryID{}, ids[:20]...), ids[40:]...) {
			if restored.Query(id) != live.Query(id) {
				t.Fatalf("opts=%+v: query %d source diverges after restore", opts, id)
			}
		}
		for _, id := range ids[20:40] {
			if restored.Query(id) != "" {
				t.Fatalf("opts=%+v: unsubscribed query %d resurrected by restore", opts, id)
			}
		}
		for di, d := range stream[cut:] {
			got := renderEngineMatches(restored.Publish("S", d))
			if got != ref[di] {
				t.Fatalf("opts=%+v: restored engine diverges from live on doc %d:\nrestored:\n%slive:\n%s",
					opts, cut+di+1, got, ref[di])
			}
		}
	}
}

// TestEngineSnapshotAsyncPipeline snapshots an engine whose continuous
// ingest pipeline is live: the snapshot must land at a barrier (an exact
// admission-order prefix) and the restored engine must continue the stream
// identically.
func TestEngineSnapshotAsyncPipeline(t *testing.T) {
	sources, stream := snapshotWorkload(40, 120)
	const cut = 60

	live := New(Options{Processor: ProcessorViewMat, PipelineDepth: 4})
	for _, src := range sources {
		live.MustSubscribe(src)
	}
	for _, d := range stream[:cut] {
		live.PublishAsync("S", d)
	}
	// No Flush: Snapshot's own barrier must order itself after the 60
	// admitted documents.
	var store MemStore
	if err := live.SnapshotTo(&store); err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	prefixMax := live.MaxDocID()

	restored, err := OpenEngineFrom(&store, Options{Processor: ProcessorViewMat, PipelineDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if got := restored.MaxDocID(); got != prefixMax || got == 0 {
		t.Fatalf("snapshot not an admission-order prefix: restored MaxDocID = %d, want %d", got, prefixMax)
	}
	for di, d := range stream[cut:] {
		got := renderEngineMatches(<-restored.PublishAsync("S", d))
		want := renderEngineMatches(<-live.PublishAsync("S", d))
		if got != want {
			t.Fatalf("restored engine diverges on doc %d:\nrestored:\n%slive:\n%s", cut+di+1, got, want)
		}
	}
}

// TestEngineSnapshotComposition restores an engine with composition and
// document retention: cascades keep firing, OutputXML still renders matches
// produced after the restore, and derived-document ids resume without
// colliding with pre-snapshot ones.
func TestEngineSnapshotComposition(t *testing.T) {
	mk := func() *Engine {
		eng := New(Options{Processor: ProcessorViewMat, EnableComposition: true})
		eng.MustSubscribe(
			"S//alert->a[./host->h][./sev->s] FOLLOWED BY{h=h2 AND s=s2, 1000} S//confirm->c[./host->h2][./sev->s2] PUBLISH incidents")
		eng.MustSubscribe(
			"incidents//alert->a[./host->h] JOIN{h=h2, 1000} P//page->p[./host->h2]")
		return eng
	}
	feed := func(eng *Engine, id int64) []Match {
		eng.PublishXML("P", "<page><host>web1</host></page>", id, id*10)
		eng.PublishXML("S", "<alert><host>web1</host><sev>hi</sev></alert>", id+1, id*10+1)
		ms, err := eng.PublishXML("S", "<confirm><host>web1</host><sev>hi</sev></confirm>", id+2, id*10+2)
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}

	live := mk()
	feed(live, 1)
	var store MemStore
	if err := live.SnapshotTo(&store); err != nil {
		t.Fatal(err)
	}
	restored, err := OpenEngineFrom(&store, Options{Processor: ProcessorViewMat, EnableComposition: true})
	if err != nil {
		t.Fatal(err)
	}

	liveMs := feed(live, 4)
	restoredMs := feed(restored, 4)
	if got, want := renderEngineMatches(restoredMs), renderEngineMatches(liveMs); got != want {
		t.Fatalf("restored cascade diverges:\nrestored:\n%slive:\n%s", got, want)
	}
	for i, m := range restoredMs {
		want, wok := live.OutputXML(liveMs[i])
		got, gok := restored.OutputXML(m)
		if gok != wok || got != want {
			t.Fatalf("OutputXML diverges after restore on match %d:\nrestored (%v): %s\nlive (%v): %s", i, gok, got, wok, want)
		}
	}
}

// TestEngineSnapshotErrors covers the rejection paths: sequential engines
// have no snapshot form, and garbage input is refused with nothing
// published.
func TestEngineSnapshotErrors(t *testing.T) {
	seq := New(Options{Processor: ProcessorSequential})
	var buf bytes.Buffer
	if err := seq.Snapshot(&buf); !errors.Is(err, ErrSequentialSnapshot) {
		t.Errorf("sequential Snapshot error = %v, want ErrSequentialSnapshot", err)
	}
	if _, err := OpenEngine(&buf, Options{Processor: ProcessorSequential}); !errors.Is(err, ErrSequentialSnapshot) {
		t.Errorf("sequential OpenEngine error = %v, want ErrSequentialSnapshot", err)
	}
	if _, err := OpenEngine(strings.NewReader(`{"format":"something-else","version":1}`), Options{}); err == nil {
		t.Error("foreign format accepted")
	}
	if _, err := OpenEngine(strings.NewReader(`not json`), Options{}); err == nil {
		t.Error("garbage snapshot accepted")
	}
}

// TestOpenEngineRejectsRoutedSnapshot feeds hand-written snapshots in the
// layout the removed router tier wrote — a partition count and one join state
// per partition in place of "state" — and requires a descriptive error
// instead of a silent restore over an empty join state. The same snapshot
// without the routed fields must still open, so the rejection is what the
// routed fields trigger.
func TestOpenEngineRejectsRoutedSnapshot(t *testing.T) {
	const head = `{"format":"mmqjp-snapshot","version":1,` +
		`"queries":[{"id":0,"source":"S//a->x JOIN{x=y, 100} S//b->y"}],` +
		`"next_derived":1099511627776,"state":{"next_seq":0,"max_doc":0}`
	part := `{"next_seq":1,"max_doc":1,"docs":[{"id":1,"ts":1,"seq":0}]}`
	for name, tail := range map[string]string{
		"count and states": `,"partitions":2,"part_states":[` + part + `,` + part + `]}`,
		"count only":       `,"partitions":4}`,
		"states only":      `,"part_states":[` + part + `]}`,
	} {
		_, err := OpenEngine(strings.NewReader(head+tail), Options{Processor: ProcessorViewMat})
		if err == nil || !strings.Contains(err.Error(), "routed") || !strings.Contains(err.Error(), "router tier was removed") {
			t.Errorf("%s: OpenEngine error = %v, want a routed-snapshot rejection", name, err)
		}
	}
	eng, err := OpenEngine(strings.NewReader(head+`}`), Options{Processor: ProcessorViewMat})
	if err != nil {
		t.Fatalf("unrouted control snapshot rejected: %v", err)
	}
	if n := eng.NumQueries(); n != 1 {
		t.Fatalf("unrouted control snapshot restored %d queries, want 1", n)
	}
}

// TestFileStore covers the file-backed store: missing file reports
// ErrNoSnapshot, Save is atomic-by-rename (the path holds a complete
// snapshot even when a later Save fails mid-write), and a round-trip
// restores subscriptions.
func TestFileStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "engine.snap")
	store := NewFileStore(path)
	if _, err := store.Open(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty store Open error = %v, want ErrNoSnapshot", err)
	}
	if _, err := OpenEngineFrom(store, Options{}); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("OpenEngineFrom on empty store = %v, want ErrNoSnapshot", err)
	}

	eng := New(Options{Processor: ProcessorViewMat})
	qid := eng.MustSubscribe(paperQ1)
	eng.PublishXML("S", paperD1, 1, 100)
	if err := eng.SnapshotTo(store); err != nil {
		t.Fatal(err)
	}

	// A failed save must leave the previous snapshot intact.
	failure := errors.New("boom")
	if err := store.Save(func(w io.Writer) error {
		w.Write([]byte("partial garbage"))
		return failure
	}); !errors.Is(err, failure) {
		t.Fatalf("Save error = %v, want the write function's error", err)
	}

	restored, err := OpenEngineFrom(store, Options{Processor: ProcessorViewMat})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Query(qid) != paperQ1 {
		t.Fatalf("restored query %d = %q, want the subscribed source", qid, restored.Query(qid))
	}
	ms, err := restored.PublishXML("S", paperD2, 2, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Query != qid {
		t.Fatalf("restored engine matches = %v, want one for query %d", ms, qid)
	}
}

// TestFileStoreGzip covers the compressed store option: WithGzip actually
// compresses the file on disk, restore is format-sniffing in both
// directions (a plain store opens a gzipped file and vice versa, so the
// option can be toggled across restarts without losing the snapshot), and
// the restored engine behaves identically.
func TestFileStoreGzip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "engine.snap")

	eng := New(Options{Processor: ProcessorViewMat})
	qid := eng.MustSubscribe(paperQ1)
	eng.PublishXML("S", paperD1, 1, 100)

	gz := NewFileStore(path, WithGzip())
	if err := eng.SnapshotTo(gz); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Fatalf("WithGzip store wrote a file without the gzip magic: % x", raw[:2])
	}

	plainStore := NewFileStore(path)
	for _, store := range []*FileStore{gz, plainStore} {
		restored, err := OpenEngineFrom(store, Options{Processor: ProcessorViewMat})
		if err != nil {
			t.Fatal(err)
		}
		ms, err := restored.PublishXML("S", paperD2, 2, 200)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 1 || ms[0].Query != qid {
			t.Fatalf("gzipped restore matches = %v, want one for query %d", ms, qid)
		}
	}

	// The reverse direction: an uncompressed snapshot already on disk must
	// still open through a WithGzip store.
	if err := eng.SnapshotTo(plainStore); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if raw[0] == 0x1f && raw[1] == 0x8b {
		t.Fatal("plain store wrote a gzipped file")
	}
	restored, err := OpenEngineFrom(gz, Options{Processor: ProcessorViewMat})
	if err != nil {
		t.Fatalf("WithGzip store opening a plain snapshot: %v", err)
	}
	if restored.Query(qid) != paperQ1 {
		t.Fatalf("restored query %d = %q, want the subscribed source", qid, restored.Query(qid))
	}
}
