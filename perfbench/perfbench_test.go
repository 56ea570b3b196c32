package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/sym"
)

// TestMain lets the test binary serve as the traced part's child process,
// as the perfbench command does.
func TestMain(m *testing.M) {
	if os.Getenv(tracedPartEnv) != "" {
		os.Exit(tracedPartMain())
	}
	os.Exit(m.Run())
}

func TestTailReportsHighestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantP float64
	}{
		{n: 1000, wantP: 99},  // 10 samples beyond p99
		{n: 5000, wantP: 99},  // capped at the requested percentile
		{n: 400, wantP: 97.5}, // 10 beyond p97.5
		{n: 150, wantP: 93.3},
		{n: 15, wantP: 50}, // never below the median
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // descending: tail must not reorder
		}
		q := tail(xs, 99)
		if q.p != tc.wantP || q.n != tc.n {
			t.Errorf("n=%d: got p%g of n=%d, want p%g", tc.n, q.p, q.n, tc.wantP)
		}
		beyond := 0
		for _, x := range xs {
			if x > q.value {
				beyond++
			}
		}
		if q.p > 50 && beyond < minTail {
			t.Errorf("n=%d: %d samples beyond p%g, want at least %d", tc.n, beyond, q.p, minTail)
		}
		if xs[0] != float64(tc.n) {
			t.Errorf("n=%d: tail reordered its input", tc.n)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for p, want := range map[float64]float64{20: 1, 50: 3, 60: 3, 61: 4, 100: 5} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
}

func TestScheduleArithmetic(t *testing.T) {
	start := time.Unix(1000, 0)
	s := schedule{start: start, rate: 240}
	if got := s.due(0); !got.Equal(start) {
		t.Errorf("due(0) = %v, want the start", got)
	}
	if got := s.due(240); !got.Equal(start.Add(time.Second)) {
		t.Errorf("due(rate) = %v, want start+1s", got.Sub(start))
	}
	// Computed from the index, so no rounding accumulates.
	if got := s.due(240 * 3600); !got.Equal(start.Add(time.Hour)) {
		t.Errorf("due(rate*3600) drifted: %v", got.Sub(start))
	}
	for i := 1; i < 1000; i++ {
		if !s.due(i).After(s.due(i - 1)) {
			t.Fatalf("due(%d) not after due(%d)", i, i-1)
		}
	}
	if got := s.count(6 * time.Second); got != 1440 {
		t.Errorf("count(6s) = %d, want 1440", got)
	}
	if got := (schedule{rate: 25}).count(time.Second); got != 25 {
		t.Errorf("count(1s) at 25/s = %d, want 25", got)
	}
}

func TestSliceRates(t *testing.T) {
	var done []time.Duration
	for i := 0; i < 100; i++ {
		done = append(done, time.Duration(i)*10*time.Millisecond)
	}
	rates := sliceRates(done, time.Second, 4)
	for k, r := range rates {
		if r != 100 {
			t.Errorf("slice %d: rate %g, want 100/s", k, r)
		}
	}
	if got := median(sliceRates(append(done, done[:25]...), time.Second, 4)); got != 100 {
		t.Errorf("median with one busy slice = %g, want 100", got)
	}
}

func TestSliceMedianIgnoresOneSlowSlice(t *testing.T) {
	var xs []float64
	for k := 0; k < 10; k++ {
		for i := 0; i < 20; i++ {
			v := float64(i + 1) // median 10 in every slice
			if k == 4 {
				v += 100 // one stall
			}
			xs = append(xs, v)
		}
	}
	if got := sliceMedian(xs, 10); got != 10 {
		t.Errorf("sliceMedian with one slow slice = %g, want 10", got)
	}
	if got := median(xs); got == 10 {
		t.Errorf("plain median %g: the stall should move it, or the test shows nothing", got)
	}
	if got := sliceMedian([]float64{4, 1, 3}, 10); got != 3 {
		t.Errorf("sliceMedian of fewer values than slices = %g, want their median 3", got)
	}
}

func TestWaitUntilIsOnTime(t *testing.T) {
	for i := 0; i < 20; i++ {
		due := time.Now().Add(time.Duration(i%4) * time.Millisecond)
		waitUntil(due)
		if late := time.Since(due); late < 0 {
			t.Fatalf("waitUntil returned %v early", -late)
		}
	}
	past := time.Now().Add(-time.Second)
	t0 := time.Now()
	waitUntil(past)
	if d := time.Since(t0); d > 100*time.Millisecond {
		t.Errorf("waitUntil for a past time took %v", d)
	}
}

func TestSlopeAndDrift(t *testing.T) {
	x := []float64{0, 1000, 2000, 3000}
	y := []float64{10, 20, 30, 40}
	if got := 1000 * slope(x, y); got != 10 {
		t.Errorf("slope = %g per 1000, want 10", got)
	}
	if got := drift([]float64{1, 1, 2, 2, 2, 2, 3, 3}); got != 3 {
		t.Errorf("drift = %g, want 3", got)
	}
	if got := drift([]float64{5}); got != 1 {
		t.Errorf("drift of one value = %g, want 1", got)
	}
}

func TestDigestIgnoresOrder(t *testing.T) {
	var a, b digest
	a.add(1, 10, 20)
	a.add(2, 10, 20)
	b.add(2, 10, 20)
	b.add(1, 10, 20)
	if a != b {
		t.Errorf("digest depends on order: %v vs %v", a, b)
	}
	var c digest
	c.add(1, 20, 10)
	c.add(2, 10, 20)
	if a == c {
		t.Errorf("swapped timestamps collide")
	}
}

func TestGenerateIsDeterministicPerSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generate(name, 7, 0.5, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(name, 7, 0.5, 0.05)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated different inputs twice", name)
		}
		c, _ := generate(name, 8, 0.5, 0.05)
		if reflect.DeepEqual(a.stream, c.stream) {
			t.Errorf("%s: seeds 7 and 8 generated the same stream", name)
		}
		// A longer run extends the stream without changing its prefix.
		long, _ := generate(name, 7, 1, 0.05)
		if !reflect.DeepEqual(long.queries, a.queries) || !reflect.DeepEqual(long.prefill, a.prefill) ||
			!reflect.DeepEqual(long.stream[:len(a.stream)], a.stream) {
			t.Errorf("%s: the stream for a longer run does not extend the shorter one", name)
		}
		if a.churn != nil && !reflect.DeepEqual(long.churn[:len(a.churn)], a.churn) {
			t.Errorf("%s: churn for a longer run does not extend the shorter one", name)
		}
		if got, want := a.stream[0].ts, a.prefill[len(a.prefill)-1].ts+1; got != want {
			t.Errorf("%s: stream starts at ts %d, want %d right after the prefill", name, got, want)
		}
	}
	if _, err := generate("nope", 1, 1, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestDigestsDeterministicAndMatchOracle(t *testing.T) {
	for _, name := range workloadNames {
		w, err := generate(name, 3, 0.3, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		a, err := runInProcess(w, 200*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runInProcess(w, 200*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		n := min(len(a.full), len(b.full))
		if checked, bad := compareDigests(a.full, b.full, n); bad != 0 || checked != n {
			t.Errorf("%s: %d of %d documents differ between two runs of one seed", name, bad, checked)
		}
		oracle, err := runOracle(w, a.warmDocs+min(w.oracleTimed, a.docs))
		if err != nil {
			t.Fatal(err)
		}
		if checked, bad := compareDigests(a.sample, oracle, len(oracle)); bad != 0 || checked <= len(w.prefill)+a.warmDocs {
			t.Errorf("%s: %d of %d documents differ from the oracle (%d prefill, %d warm-up)", name, bad, checked, len(w.prefill), a.warmDocs)
		}
		total := 0
		for _, d := range a.full {
			total += d.n
		}
		if total == 0 {
			t.Errorf("%s: no matches at all", name)
		}
	}
}

// Initial subscriptions that share a text share one oracle subscription;
// churning them away one by one, and subscribing the same text again, must
// keep the oracle in step with the engine.
func TestOracleSharedTextsUnderChurn(t *testing.T) {
	w, err := generate("rss", 3, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// The copies of the self-join on channel_url, which matches items of
	// one channel and so makes most rss matches.
	var shared []int64
	for i, q := range w.queries {
		if strings.Contains(q, "channel_url->v1] FOLLOWED BY{v1=w1,") && strings.Contains(q, "channel_url->w1]") {
			shared = append(shared, int64(i))
		}
	}
	if len(shared) < oracleShared || !w.shared[shared[0]] {
		t.Fatalf("the channel_url self-join has %d copies, want at least %d", len(shared), oracleShared)
	}
	// Unsubscribe its copies in turn, then the churn's own subscriptions,
	// each time subscribing the same text again.
	w.churn = make([]churnOp, len(w.stream))
	for i := range w.churn {
		unsub := int64(len(w.queries) + i - len(shared))
		if i < len(shared) {
			unsub = shared[i]
		}
		w.churn[i] = churnOp{unsub: unsub, sub: w.queries[shared[0]]}
	}
	in, err := runInProcess(w, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := runOracle(w, in.warmDocs+min(w.oracleTimed, in.docs))
	if err != nil {
		t.Fatal(err)
	}
	checked, bad := compareDigests(in.sample, oracle, len(oracle))
	if bad != 0 || checked <= len(w.prefill)+len(shared) {
		t.Errorf("%d of %d documents differ from the oracle (%d prefill, %d copies churned)", bad, checked, len(w.prefill), len(shared))
	}
	streamMatches := 0
	for _, d := range in.sample[len(w.prefill):] {
		streamMatches += d.n
	}
	if streamMatches == 0 {
		t.Error("the oracle sample holds no match after the prefill")
	}
}

// buildServer compiles cmd/mmqjp-server for the wire phase.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "mmqjp-server")
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/mmqjp-server").CombinedOutput()
	if err != nil {
		t.Fatalf("build server: %v\n%s", err, out)
	}
	return bin
}

// benchmarkJSON is the part of BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	var names []string
	for _, wl := range readBenchmarkJSON(t).Workloads {
		names = append(names, wl.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json declares workloads %v, the benchmark has %v", names, workloadNames)
	}
}

// Each workload runs end to end at a tiny scale, passes its checks, and
// reports exactly the metrics BENCHMARK.json declares, with their units.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts server children")
	}
	decl := readBenchmarkJSON(t)
	bin := buildServer(t)
	spans := t.TempDir()
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 2, seconds: 1.5, trace: trace, server: bin, spansDir: spans, scale: 0.05}
			var out strings.Builder
			res, err := run(o, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", name, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", name, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			want := decl.EndToEnd
			if trace {
				want = decl.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s reported as %+v, declared with unit %s", name, trace, m.Name, got, m.Unit)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(spans, name+".jsonl")); err != nil {
			t.Errorf("%s: spans not written: %v", name, err)
		}
	}
}

// The traced part runs in a process of its own, so its symbol interner
// starts empty even after this process has run the workload.
func TestTracedPartRunsInFreshProcess(t *testing.T) {
	o := options{workload: "rss", seed: 4, seconds: 0.3, scale: 0.05}
	w, err := generate(o.workload, o.seed, o.seconds, o.scale)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runInProcess(w, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	rep, err := runTracedPart(o, filepath.Join(t.TempDir(), "rss.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.SymbolsAtStart > 1 || sym.Count() <= 1 {
		t.Errorf("traced part started with %d symbols interned (this process has %d), want only the empty string",
			rep.SymbolsAtStart, sym.Count())
	}
	for _, m := range rep.Metrics {
		if m.Name == "sym.symbols_per_doc" && m.Value <= 0 {
			t.Errorf("sym.symbols_per_doc = %g on rss, whose item URLs are unique", m.Value)
		}
	}
}
