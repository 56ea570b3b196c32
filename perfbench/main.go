// Command perfbench is the repository's benchmark. For one workload and seed
// it runs the engine three ways and prints every metric by name and unit,
// ending with one JSON result line:
//
//  1. an untraced in-process closed loop through the public facade
//     (mmqjp.New, Engine.Subscribe, Engine.PublishDoc): throughput, set-up
//     time, publish latency and memory;
//  2. an untraced open loop over TCP against a cmd/mmqjp-server child at the
//     workload's fixed rate: publish→OK and publish→MATCH latency, timed
//     from each request's due time;
//  3. with -trace 1, a traced run in a child process of its own that calls
//     each layer's public functions itself (xscl.Parse,
//     core.Processor.Register/Unregister, xmldoc.ParseString,
//     Processor.RunStage1/ConsumeStage1), keeps a span per call in memory
//     and writes the spans out at the end.
//
// Every run checks its outputs: the in-process match set against the
// sequential oracle on a sample of subscriptions, and the wire match set
// against the in-process one. See README.md for the workloads and metrics.
//
// Usage (perfbench/run.sh builds the server and this command first):
//
//	perfbench -workload rss -seed 1 -seconds 6 -trace 0 -server .bench_build/mmqjp-server
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// maxLagP99Ms is the generator lateness beyond which a wire run is invalid:
// the load generator, not the server, fell behind its schedule.
const maxLagP99Ms = 20

// wireShare sets the wire phase's length: --seconds divided by wireShare.
// Its latencies are per-layer metrics, without a bound, so the run's time
// goes mostly to the in-process phase, whose metrics carry the bounds.
const wireShare = 3

// rateSlices is how many equal slices a timed phase is cut into for its
// median throughput and median wire latencies.
const rateSlices = 10

// metric is one reported value.
type metric struct {
	name, unit string
	value      float64
	note       string // printed beside the value, not in the JSON
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	server   string
	spansDir string
	// scale shrinks query counts and windows for the package's tests;
	// the command always runs at 1.
	scale float64
}

func main() {
	if os.Getenv(tracedPartEnv) != "" {
		os.Exit(tracedPartMain())
	}
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 6, "length of the in-process and traced timed phases, in seconds; the wire phase runs a third of it")
	flag.IntVar(&traceFlag, "trace", 0, "1 adds the traced run and reports per-layer metrics instead of end-to-end ones")
	flag.StringVar(&o.server, "server", ".bench_build/mmqjp-server", "mmqjp-server binary for the wire phase")
	flag.StringVar(&o.spansDir, "spans-dir", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()
	o.trace = traceFlag == 1
	o.scale = 1
	if o.workload == "" || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one benchmark run, printing progress and metrics to out.
func run(o options, out io.Writer) (*result, error) {
	dur := time.Duration(o.seconds * float64(time.Second))
	w, err := generate(o.workload, o.seed, o.seconds, o.scale)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(o.server); err != nil {
		return nil, fmt.Errorf("server binary: %w (perfbench/run.sh builds it)", err)
	}
	fmt.Fprintln(out, configLine())
	fmt.Fprintf(out, "workload %s seed %d: %d queries, window %d, prefill %d docs, wire rate %g docs/s, timed phases %gs in-process and %gs wire\n",
		w.name, o.seed, len(w.queries), w.window, len(w.prefill), w.wireRate, o.seconds, o.seconds/wireShare)

	in, err := runInProcess(w, dur)
	if err != nil {
		return nil, fmt.Errorf("in-process run: %w", err)
	}
	attempted, failed := in.attempted, in.failed
	fmt.Fprintf(out, "in-process: %d warm-up and %d timed docs in %v (%.1f docs/s, median of %d slices), %.1f matches/doc\n",
		in.warmDocs, in.docs, in.elapsed.Round(time.Millisecond), median(sliceRates(in.doneAt, in.elapsed, rateSlices)), rateSlices,
		float64(in.matches)/float64(in.docs))
	if in.docs == len(w.stream) {
		fmt.Fprintln(out, "note: in-process run used the whole generated stream before the time was up")
	}

	correct := true
	oracle, err := runOracle(w, in.warmDocs+min(w.oracleTimed, in.docs))
	if err != nil {
		return nil, err
	}
	checked, bad := compareDigests(in.sample, oracle, len(oracle))
	firstTimed := len(w.prefill) + in.warmDocs
	shared, sampled := 0, 0
	for i := range w.queries {
		if w.shared[i] {
			shared++
		}
		if w.sampled(int64(i)) {
			sampled++
		}
	}
	fmt.Fprintf(out, "check oracle: %d of %d documents compared (%d of them timed) on %d of %d initial subscriptions (%d with a shared text, 1 in %d of the rest), %d differ\n",
		checked, len(oracle), max(0, checked-firstTimed), sampled, len(w.queries), shared, w.oracleEvery, bad)
	failed += bad
	if checked <= firstTimed {
		correct = false
		fmt.Fprintln(out, "check oracle: no timed document compared")
	}

	wr, err := runWire(w, o.server, dur/wireShare)
	if err != nil {
		return nil, fmt.Errorf("wire run: %w", err)
	}
	attempted += wr.attempted
	failed += wr.failed
	fmt.Fprintf(out, "wire: %d warm-up and %d timed PUBs at %g docs/s, backlog at most %d\n",
		wr.warmDocs, wr.docs-wr.warmDocs, w.wireRate, wr.backlogMax)
	checked, bad = compareDigests(in.full, wr.full, len(wr.full))
	fmt.Fprintf(out, "check wire: %d of %d documents compared with the in-process run, %d differ; %d wire errors or timeouts\n",
		checked, len(wr.full), bad, wr.failed)
	failed += bad
	if checked <= len(w.prefill)+wr.warmDocs {
		correct = false
		fmt.Fprintln(out, "check wire: no timed document compared")
	}
	lag := tail(wr.lagMs, 99)
	if lag.value > maxLagP99Ms {
		return nil, fmt.Errorf("wire run invalid: generator lag p%g %.1f ms exceeds %d ms", lag.p, lag.value, maxLagP99Ms)
	}

	var metrics []metric
	if !o.trace {
		metrics = []metric{
			{name: "publish_p50_ms", unit: "ms", value: median(in.publishMs), note: fmt.Sprintf("n=%d", len(in.publishMs))},
			{name: "setup_s", unit: "s", value: median(in.setupS), note: fmt.Sprintf("median of %d set-ups", len(in.setupS))},
			{name: "heap_mb", unit: "MB", value: in.heapMB},
		}
	} else {
		spans := filepath.Join(o.spansDir, w.name+".jsonl")
		tr, err := runTracedPart(o, spans)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		fmt.Fprintf(out, "traced (own process): %d docs in %.3fs, %d spans written to %s\n", tr.Docs, tr.ElapsedS, tr.Spans, spans)
		if tr.WindowAtStart < int(w.window) || tr.WindowAtFinish < int(w.window) {
			correct = false
			fmt.Fprintf(out, "check window: %d documents in state at the start and %d at the end, want at least %d\n",
				tr.WindowAtStart, tr.WindowAtFinish, w.window)
		} else {
			fmt.Fprintf(out, "check window: %d documents in state at the start, %d at the end (window %d)\n",
				tr.WindowAtStart, tr.WindowAtFinish, w.window)
		}
		for _, m := range tr.Metrics {
			metrics = append(metrics, metric{name: m.Name, unit: m.Unit, value: m.Value, note: m.Note})
		}
		metrics = append(metrics, runMetrics(in, wr, tr.DocsPerS)...)
	}

	fmt.Fprintf(out, "failed_frac %.6g ratio (%d failed of %d operations; a document whose matches differ counts as failed)\n",
		float64(failed)/float64(attempted), failed, attempted)
	res := &result{Correct: correct && failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}
	for _, m := range metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s has no value", m.name)
		}
		line := fmt.Sprintf("%-28s %14.6g %s", m.name, m.value, m.unit)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Fprintln(out, line)
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	return res, nil
}

// sliceNote describes a wire median taken by sliceMedian.
func sliceNote(xs []float64) string {
	return fmt.Sprintf("median of %d slice medians, n=%d", rateSlices, len(xs))
}

// qnote describes which percentile a tail metric reports.
func qnote(q quantile) string {
	return fmt.Sprintf("p%g of n=%d", q.p, q.n)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedMetrics derives the per-layer metrics of the traced run.
func tracedMetrics(tr *tracedResult) []metric {
	docs := float64(tr.docs)
	st := tr.stats
	perDoc := func(d time.Duration) float64 { return us(d) / docs }
	parse99, s1p99, s2p99 := tail(tr.parseUs, 99), tail(tr.stage1Us, 99), tail(tr.stage2Us, 99)
	total := mean(tr.parseUs) + mean(tr.stage1Us) + mean(tr.stage2Us)
	churnNote := "in-stream churn"
	if tr.churnProbe {
		churnNote = fmt.Sprintf("post-stream probe of %d pairs; the stream has no churn", len(tr.churnRegisterUs))
	}
	return []metric{
		{name: "xmldoc.parse_us", unit: "us", value: mean(tr.parseUs)},
		{name: "xmldoc.parse_us_p99", unit: "us", value: parse99.value, note: qnote(parse99)},
		{name: "xmldoc.bytes_per_doc", unit: "bytes", value: tr.bytesPerDoc},
		{name: "core.stage1_us", unit: "us", value: mean(tr.stage1Us)},
		{name: "core.stage1_us_p99", unit: "us", value: s1p99.value, note: qnote(s1p99)},
		{name: "yfilter.match_us", unit: "us", value: perDoc(st.XPath)},
		{name: "core.witness_us", unit: "us", value: perDoc(st.Witness)},
		{name: "core.stage2_us", unit: "us", value: mean(tr.stage2Us)},
		{name: "core.stage2_us_p99", unit: "us", value: s2p99.value, note: qnote(s2p99)},
		{name: "core.stage2_frac", unit: "ratio", value: ratio(mean(tr.stage2Us), total), note: "of parse+stage1+stage2 per document"},
		{name: "core.cq_us", unit: "us", value: perDoc(st.CQ)},
		{name: "core.rvj_us", unit: "us", value: perDoc(st.Rvj)},
		{name: "core.rl_us", unit: "us", value: perDoc(st.RL)},
		{name: "core.rr_us", unit: "us", value: perDoc(st.RR)},
		{name: "core.stage2_us_per_krow", unit: "us/krow", value: 1000 * slope(tr.fillRows, tr.fillStage2Us), note: fmt.Sprintf("fit over %d prefill documents", len(tr.fillRows))},
		{name: "core.stage2_drift", unit: "ratio", value: drift(tr.stage2Us), note: "last quarter over first quarter of the timed phase"},
		{name: "core.maintain_us", unit: "us", value: perDoc(st.Maintain)},
		{name: "core.state_docs", unit: "count", value: float64(tr.windowAtFinish)},
		{name: "core.state_rows", unit: "count", value: float64(tr.stateRows)},
		{name: "sym.symbols_per_doc", unit: "count", value: tr.symbolsPerDoc},
		{name: "core.explore_frac", unit: "ratio", value: ratio(float64(st.ExploreWall), float64(st.Stage2Wall))},
		{name: "core.rt_plan_frac", unit: "ratio", value: ratio(float64(st.RTPlans), float64(st.RTPlans+st.WitnessPlans))},
		{name: "core.parallel_eff", unit: "ratio", value: ratio(float64(st.CQ), float64(st.Stage2Wall)*float64(tr.workers)), note: fmt.Sprintf("%d workers", tr.workers)},
		{name: "core.steals_per_doc", unit: "count", value: float64(st.Steals) / docs},
		{name: "xscl.parse_us", unit: "us", value: mean(tr.xsclUs)},
		{name: "core.register_us", unit: "us", value: mean(tr.registerUs)},
		{name: "core.templates", unit: "count", value: float64(tr.templates)},
		{name: "core.queries_per_template", unit: "count", value: ratio(float64(tr.queries), float64(tr.templates))},
		{name: "core.churn_register_us", unit: "us", value: mean(tr.churnRegisterUs), note: churnNote},
		{name: "core.unregister_us", unit: "us", value: mean(tr.unregUs), note: churnNote},
	}
}

// runMetrics derives the per-layer metrics of the untraced in-process and
// wire runs; tracedRate is the traced run's docs/s.
func runMetrics(in *inprocResult, wr *wireResult, tracedRate float64) []metric {
	inRate := median(sliceRates(in.doneAt, in.elapsed, rateSlices))
	lag := tail(wr.lagMs, 99)
	pub, okp, mp := tail(in.publishMs, 99), tail(wr.okMs, 99), tail(wr.matchMs, 99)
	wireDocs := float64(wr.docs)
	return []metric{
		{name: "mmqjp.docs_per_s", unit: "docs/s", value: inRate, note: fmt.Sprintf("median of %d slices, %d docs", rateSlices, in.docs)},
		{name: "mmqjp.matches_per_doc", unit: "count", value: float64(in.matches) / float64(in.docs)},
		{name: "mmqjp.allocs_per_doc", unit: "count", value: float64(in.mallocs) / float64(in.docs)},
		{name: "mmqjp.publish_p99_ms", unit: "ms", value: pub.value, note: qnote(pub)},
		{name: "server.engine_ms", unit: "ms", value: wr.engineMs},
		{name: "server.match_lines_per_doc", unit: "count", value: float64(wr.matchLines) / wireDocs},
		{name: "server.bytes_out_per_doc", unit: "bytes", value: float64(wr.bytesIn) / wireDocs},
		{name: "loadgen.ok_p50_ms", unit: "ms", value: sliceMedian(wr.okMs, rateSlices), note: sliceNote(wr.okMs)},
		{name: "loadgen.ok_p99_ms", unit: "ms", value: okp.value, note: qnote(okp)},
		{name: "loadgen.match_p50_ms", unit: "ms", value: sliceMedian(wr.matchMs, rateSlices), note: sliceNote(wr.matchMs)},
		{name: "loadgen.match_p99_ms", unit: "ms", value: mp.value, note: qnote(mp)},
		{name: "loadgen.lag_p99_ms", unit: "ms", value: lag.value, note: qnote(lag)},
		{name: "loadgen.backlog_max", unit: "count", value: float64(wr.backlogMax)},
		{name: "trace.overhead_frac", unit: "ratio", value: ratio(inRate, tracedRate) - 1, note: fmt.Sprintf("untraced %.1f vs traced %.1f docs/s", inRate, tracedRate)},
	}
}
