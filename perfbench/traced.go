package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/sym"
	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one document share their parent, the document span.
type span struct {
	id, parent int32
	name       string
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int32) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, start: time.Since(t.epoch)})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	s := &t.spans[id]
	s.end = time.Since(t.epoch)
	return s.end - s.start
}

// write stores the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(bw, `{"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.id, s.parent, s.name, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedResult holds the per-layer measurements of the traced run.
type tracedResult struct {
	nspans  int
	docs    int
	elapsed time.Duration
	doneAt  []time.Duration // per timed document: completion since start

	parseUs, stage1Us, stage2Us []float64 // per timed document
	bytesPerDoc                 float64
	xsclUs, registerUs          []float64 // per initial query
	churnRegisterUs, unregUs    []float64
	churnProbe                  bool // churn timings come from a post-stream probe

	// Stage-2 µs against join-state rows while the prefill fills the
	// window.
	fillRows, fillStage2Us []float64

	stats          core.Stats // delta over the timed phase
	workers        int
	templates      int
	queries        int
	stateRows      int
	symbolsPerDoc  float64
	windowAtStart  int
	windowAtFinish int
}

// stateRows is the join state's row count across Rbin, Rdoc and Rroot.
func stateRows(p *core.Processor) int {
	st := p.State()
	return st.Rbin.Len() + st.Rdoc.Len() + st.Rroot.Len()
}

// coreConfig is engineOptions translated to the join processor's own
// configuration, as the facade does.
func coreConfig() core.Config {
	o := engineOptions()
	return core.Config{
		ViewMaterialization: true,
		Plan:                core.PlanKind(o.Plan),
		PlanExploreEvery:    o.PlanExploreEvery,
		Workers:             o.Parallelism,
		PipelineDepth:       o.PipelineDepth,
	}
}

// probeChurn is how many unsubscribe/subscribe pairs the post-stream probe
// times on workloads whose stream has no churn.
const probeChurn = 20

// runTraced repeats the in-process run below the facade, calling each
// layer's public entry point itself and recording a span around every call:
// xscl.Parse and Processor.Register at set-up, then per document
// xmldoc.ParseString, Processor.RunStage1 and Processor.ConsumeStage1, with
// Unregister/Register for churn. The spans are written to spansPath.
func runTraced(w *benchWorkload, dur time.Duration, spansPath string) (*tracedResult, error) {
	tr := newTracer()
	r := &tracedResult{}
	p := core.NewProcessor(coreConfig())
	r.workers = p.Workers()

	register := func(src string, parent int32, parseName, regName string) (core.QueryID, time.Duration, time.Duration, error) {
		s := tr.begin(parseName, parent)
		q, err := xscl.Parse(src)
		dp := tr.end(s)
		if err != nil {
			return 0, dp, 0, err
		}
		s = tr.begin(regName, parent)
		id, err := p.Register(q)
		return id, dp, tr.end(s), err
	}
	setup := tr.begin("setup", -1)
	for i, q := range w.queries {
		id, dp, dr, err := register(q, setup, "xscl.parse", "core.register")
		if err != nil || int64(id) != int64(i) {
			return nil, fmt.Errorf("traced register %d: id %d, %v", i, id, err)
		}
		r.xsclUs = append(r.xsclUs, us(dp))
		r.registerUs = append(r.registerUs, us(dr))
	}
	tr.end(setup)
	r.templates, r.queries = p.NumTemplates(), p.NumQueries()

	// process runs one document through the three per-document layers and
	// returns their durations.
	var bytesIn int
	process := func(d doc) (parse, s1, s2 time.Duration, err error) {
		ds := tr.begin("doc", -1)
		defer tr.end(ds)
		s := tr.begin("xmldoc.parse", ds)
		xd, err := xmldoc.ParseString(d.xml, xmldoc.DocID(d.id), xmldoc.Timestamp(d.ts))
		parse = tr.end(s)
		if err != nil {
			return parse, 0, 0, fmt.Errorf("parse doc %d: %w", d.id, err)
		}
		bytesIn += len(d.xml)
		s = tr.begin("core.stage1", ds)
		res := p.RunStage1(stream, xd)
		s1 = tr.end(s)
		s = tr.begin("core.stage2", ds)
		p.ConsumeStage1(res)
		s2 = tr.end(s)
		return parse, s1, s2, nil
	}

	for _, d := range w.prefill {
		rows := stateRows(p)
		_, _, s2, err := process(d)
		if err != nil {
			return nil, err
		}
		r.fillRows = append(r.fillRows, float64(rows))
		r.fillStage2Us = append(r.fillStage2Us, us(s2))
	}
	r.windowAtStart = p.State().NumDocs()

	nextID := int64(len(w.queries))
	i := 0
	// step publishes stream document i, after its churn, and reports the
	// per-document layer times.
	step := func() (parse, s1, s2 time.Duration, err error) {
		if w.churn != nil {
			op := w.churn[i]
			s := tr.begin("core.unregister", -1)
			err := p.Unregister(core.QueryID(op.unsub))
			r.unregUs = append(r.unregUs, us(tr.end(s)))
			if err != nil {
				return 0, 0, 0, fmt.Errorf("traced unregister %d: %w", op.unsub, err)
			}
			cs := tr.begin("churn", -1)
			id, _, dr, err := register(op.sub, cs, "xscl.parse", "core.churn_register")
			tr.end(cs)
			if err != nil || int64(id) != nextID {
				return 0, 0, 0, fmt.Errorf("traced churn register %d: id %d, %v", nextID, id, err)
			}
			r.churnRegisterUs = append(r.churnRegisterUs, us(dr))
			nextID++
		}
		d := w.stream[i]
		i++
		return process(d)
	}
	// The warm-up takes at most half the stream, so that the timed phase
	// always has documents, however fast the engine runs.
	for warmEnd := time.Now().Add(warmupFor(dur)); i < len(w.stream)/2 && time.Now().Before(warmEnd); {
		if _, _, _, err := step(); err != nil {
			return nil, err
		}
	}
	r.churnRegisterUs, r.unregUs = r.churnRegisterUs[:0], r.unregUs[:0]

	stats0 := p.Stats()
	sym0 := sym.Count()
	bytesIn = 0
	start := time.Now()
	deadline := start.Add(dur)
	for i < len(w.stream) && (r.docs == 0 || time.Now().Before(deadline)) {
		parse, s1, s2, err := step()
		if err != nil {
			return nil, err
		}
		r.doneAt = append(r.doneAt, time.Since(start))
		r.parseUs = append(r.parseUs, us(parse))
		r.stage1Us = append(r.stage1Us, us(s1))
		r.stage2Us = append(r.stage2Us, us(s2))
		r.docs++
	}
	r.elapsed = time.Since(start)
	r.stats = statsDelta(p.Stats(), stats0)
	r.symbolsPerDoc = float64(sym.Count()-sym0) / float64(r.docs)
	r.bytesPerDoc = float64(bytesIn) / float64(r.docs)
	r.windowAtFinish = p.State().NumDocs()
	r.stateRows = stateRows(p)

	if w.churn == nil {
		// No churn in this stream: time re-registering a few queries
		// after the timed phase, outside every other measurement.
		r.churnProbe = true
		for i := 0; i < probeChurn && i < len(w.queries); i++ {
			s := tr.begin("core.unregister", -1)
			err := p.Unregister(core.QueryID(i))
			r.unregUs = append(r.unregUs, us(tr.end(s)))
			if err != nil {
				return nil, fmt.Errorf("probe unregister %d: %w", i, err)
			}
			cs := tr.begin("churn", -1)
			_, _, dr, err := register(w.queries[i], cs, "xscl.parse", "core.churn_register")
			tr.end(cs)
			if err != nil {
				return nil, fmt.Errorf("probe register %d: %w", i, err)
			}
			r.churnRegisterUs = append(r.churnRegisterUs, us(dr))
		}
	}
	runtime.KeepAlive(p)
	r.nspans = len(tr.spans)
	if err := tr.write(spansPath); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return r, nil
}

// statsDelta returns a - b for the counters the per-layer metrics use.
func statsDelta(a, b core.Stats) core.Stats {
	return core.Stats{
		XPath:        a.XPath - b.XPath,
		Witness:      a.Witness - b.Witness,
		Rvj:          a.Rvj - b.Rvj,
		RL:           a.RL - b.RL,
		RR:           a.RR - b.RR,
		CQ:           a.CQ - b.CQ,
		Maintain:     a.Maintain - b.Maintain,
		Stage1Wall:   a.Stage1Wall - b.Stage1Wall,
		Stage2Wall:   a.Stage2Wall - b.Stage2Wall,
		ExploreWall:  a.ExploreWall - b.ExploreWall,
		Matches:      a.Matches - b.Matches,
		Documents:    a.Documents - b.Documents,
		WitnessPlans: a.WitnessPlans - b.WitnessPlans,
		RTPlans:      a.RTPlans - b.RTPlans,
		Explorations: a.Explorations - b.Explorations,
		Splits:       a.Splits - b.Splits,
		SplitChunks:  a.SplitChunks - b.SplitChunks,
		Steals:       a.Steals - b.Steals,
	}
}

// tracedPartEnv, when set in its environment, makes the process run only the
// traced part: it reads a tracedRequest as JSON on standard input and writes
// a tracedReply as JSON on standard output. The benchmark re-executes itself
// this way so that the traced run starts like the untraced parts do, with an
// empty symbol interner (internal/sym is process-global and never shrinks)
// and a heap of its own, instead of after them in the same process.
const tracedPartEnv = "PERFBENCH_TRACED_PART"

// tracedRequest names the workload instance the traced part regenerates.
type tracedRequest struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Scale    float64 `json:"scale"`
	Spans    string  `json:"spans"`
}

// tracedReply is what the benchmark keeps of the traced run.
type tracedReply struct {
	Docs           int     `json:"docs"`
	ElapsedS       float64 `json:"elapsed_s"`
	Spans          int     `json:"spans"`
	WindowAtStart  int     `json:"window_at_start"`
	WindowAtFinish int     `json:"window_at_finish"`
	DocsPerS       float64 `json:"docs_per_s"` // median slice rate
	// SymbolsAtStart is sym.Count() before the workload is generated:
	// only the empty string the interner pins, in a fresh process.
	SymbolsAtStart int         `json:"symbols_at_start"`
	Metrics        []wireValue `json:"metrics"`
}

// wireValue is a metric as it crosses the process boundary.
type wireValue struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Note  string  `json:"note,omitempty"`
}

// runTracedPart runs the traced part of o in a child process (see
// tracedPartEnv) and waits for it to end.
func runTracedPart(o options, spansPath string) (*tracedReply, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	req, err := json.Marshal(tracedRequest{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Scale: o.scale, Spans: spansPath})
	if err != nil {
		return nil, err
	}
	var stdout bytes.Buffer
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), tracedPartEnv+"=1")
	cmd.Stdin = bytes.NewReader(req)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	stopWithParent(cmd)
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("traced process: %w", err)
	}
	var rep tracedReply
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("traced process reply: %w", err)
	}
	return &rep, nil
}

// tracedPartMain is the child's side of runTracedPart; it returns the exit
// code.
func tracedPartMain() int {
	var req tracedRequest
	err := json.NewDecoder(os.Stdin).Decode(&req)
	var rep *tracedReply
	if err == nil {
		rep, err = tracedPart(req)
	}
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench traced part:", err)
		return 1
	}
	return 0
}

func tracedPart(req tracedRequest) (*tracedReply, error) {
	symbols := sym.Count()
	w, err := generate(req.Workload, req.Seed, req.Seconds, req.Scale)
	if err != nil {
		return nil, err
	}
	tr, err := runTraced(w, time.Duration(req.Seconds*float64(time.Second)), req.Spans)
	if err != nil {
		return nil, err
	}
	rep := &tracedReply{
		Docs:           tr.docs,
		ElapsedS:       tr.elapsed.Seconds(),
		Spans:          tr.nspans,
		WindowAtStart:  tr.windowAtStart,
		WindowAtFinish: tr.windowAtFinish,
		DocsPerS:       median(sliceRates(tr.doneAt, tr.elapsed, rateSlices)),
		SymbolsAtStart: symbols,
	}
	for _, m := range tracedMetrics(tr) {
		rep.Metrics = append(rep.Metrics, wireValue{Name: m.name, Unit: m.unit, Value: m.value, Note: m.note})
	}
	return rep, nil
}
