package main

import (
	"fmt"
	"runtime"
	"time"

	mmqjp "repro"
)

// engineOptions is the configuration every part of the benchmark runs: the
// server's defaults, set explicitly. Options{} would select ProcessorMMQJP
// and disable plan exploration, unlike the server.
func engineOptions() mmqjp.Options {
	return mmqjp.Options{
		Processor:        mmqjp.ProcessorViewMat,
		Plan:             mmqjp.PlanAuto,
		PlanExploreEvery: 64,
		Parallelism:      runtime.NumCPU(),
		PipelineDepth:    runtime.NumCPU(),
	}
}

// configLine prints engineOptions the way the server's flags spell them.
func configLine() string {
	o := engineOptions()
	return fmt.Sprintf("config: processor=viewmat parallelism=%d pipeline_depth=%d plan=auto plan_explore_every=%d split_threshold=default partitions=none gomaxprocs=%d",
		o.Parallelism, o.PipelineDepth, o.PlanExploreEvery, runtime.GOMAXPROCS(0))
}

// sampled reports whether the subscription with global index qid belongs to
// the query sample the sequential oracle replays: every initial subscription
// whose text is shared (see benchWorkload.shared), and one in oracleEvery of
// the others, chosen by a seeded hash. Queries are independent, so the
// sample's matches must equal the engine's matches restricted to it.
func (w *benchWorkload) sampled(qid int64) bool {
	if qid < int64(len(w.shared)) && w.shared[qid] {
		return true
	}
	return matchKey(qid, w.seed, 0)%uint64(w.oracleEvery) == 0
}

// inprocResult is the outcome of the untraced in-process closed loop.
type inprocResult struct {
	setupS    []float64 // seconds per set-up repetition
	warmDocs  int       // stream documents published before timing
	docs      int       // timed stream documents published
	elapsed   time.Duration
	doneAt    []time.Duration // per timed document: completion since start
	publishMs []float64       // per-PublishDoc latency of the timed documents
	heapMB    float64         // live heap with the window full, less the inputs'
	matches   int64
	mallocs   uint64
	attempted int
	failed    int
	// full holds each document's match digest, prefill first; sample the
	// digest restricted to oracle-sampled subscriptions, for the documents
	// the oracle replays: the prefill, the warm-up and w.oracleTimed
	// timed documents.
	full, sample []digest
}

// liveHeap collects garbage and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// warmupFor is how long a phase timed for dur first runs the continuation
// stream untimed, so that one-off costs after the prefill stay out of the
// figures: one second, or a quarter of a short phase.
func warmupFor(dur time.Duration) time.Duration { return min(time.Second, dur/4) }

// runInProcess drives the workload through the public facade as a closed
// loop: set-up (repeated for the median), window prefill, a warm-up, then
// the timed continuation stream for the given duration.
func runInProcess(w *benchWorkload, dur time.Duration) (*inprocResult, error) {
	r := &inprocResult{}
	base := liveHeap()
	var eng *mmqjp.Engine
	for rep := 0; rep < w.setupReps; rep++ {
		eng = nil
		runtime.GC()
		t0 := time.Now()
		e := mmqjp.New(engineOptions())
		for i, q := range w.queries {
			id, err := e.Subscribe(q)
			if err != nil {
				return nil, fmt.Errorf("subscribe %d: %w", i, err)
			}
			if int64(id) != int64(i) {
				return nil, fmt.Errorf("subscribe %d: got id %d", i, id)
			}
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		eng = e
	}
	r.attempted += len(w.queries)

	// Every document is sampled until the warm-up ends, which fixes how
	// far the oracle replays.
	nSample := len(w.prefill) + len(w.stream)
	publish := func(d doc, idx int) (time.Duration, error) {
		t0 := time.Now()
		res, err := eng.PublishDoc(stream, nil, mmqjp.WithXML(d.xml, d.id, d.ts))
		lat := time.Since(t0)
		r.attempted++
		if err != nil {
			r.failed++
			return lat, fmt.Errorf("publish doc %d: %w", d.id, err)
		}
		var full, sample digest
		for _, b := range res.Batches {
			for _, m := range b {
				full.add(int64(m.Query), m.LeftTS, m.RightTS)
				if idx < nSample && w.sampled(int64(m.Query)) {
					sample.add(int64(m.Query), m.LeftTS, m.RightTS)
				}
			}
		}
		r.full = append(r.full, full)
		if idx < nSample {
			r.sample = append(r.sample, sample)
		}
		r.matches += int64(full.n)
		return lat, nil
	}
	for i, d := range w.prefill {
		if _, err := publish(d, i); err != nil {
			return nil, err
		}
	}
	// The heap is measured once the window is full, a point every run
	// reaches after the same documents. At the end of the timed phase it
	// would also hold every symbol the interner kept from however many
	// documents the host's speed allowed (item URLs on rss are unique).
	r.heapMB = (float64(liveHeap()) - float64(base)) / (1 << 20)

	nextID := int64(len(w.queries))
	i := 0
	step := func() error {
		if w.churn != nil {
			op := w.churn[i]
			r.attempted += 2
			if err := eng.Unsubscribe(mmqjp.QueryID(op.unsub)); err != nil {
				r.failed++
				return fmt.Errorf("unsubscribe %d: %w", op.unsub, err)
			}
			id, err := eng.Subscribe(op.sub)
			if err != nil || int64(id) != nextID {
				r.failed++
				return fmt.Errorf("churn subscribe %d: id %d, %v", nextID, id, err)
			}
			nextID++
		}
		lat, err := publish(w.stream[i], len(w.prefill)+i)
		if err != nil {
			return err
		}
		r.publishMs = append(r.publishMs, ms(lat))
		i++
		return nil
	}
	// The warm-up takes at most half the stream, so that the timed phase
	// always has documents, however fast the engine runs.
	for warmEnd := time.Now().Add(warmupFor(dur)); i < len(w.stream)/2 && time.Now().Before(warmEnd); {
		if err := step(); err != nil {
			return nil, err
		}
	}
	r.warmDocs = i
	nSample = len(w.prefill) + r.warmDocs + w.oracleTimed
	r.publishMs = r.publishMs[:0]
	r.matches = 0

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	deadline := start.Add(dur)
	for i < len(w.stream) && (r.docs == 0 || time.Now().Before(deadline)) {
		if err := step(); err != nil {
			return nil, err
		}
		r.doneAt = append(r.doneAt, time.Since(start))
		r.docs++
	}
	r.elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	r.mallocs = m1.Mallocs - m0.Mallocs
	return r, nil
}
