package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

// The "allocs" experiment: per-stage allocation counts of the per-document
// hot path, the machine-independent series behind the CI allocs/op
// regression gate. Four series are reported:
//
//   - rss parse: xmldoc.ParseString over the serialized RSS stream — the
//     XML-decode and string-value memoization cost per document.
//   - rss stage1: core's RunStage1 (shared-NFA match + witness-relation
//     construction) per document, on a warm processor.
//   - rss per-document: the full Process path (Stage 1, Stage 2, state
//     merge, window GC) per document — the acceptance series of the
//     hot-path memory work.
//   - scale per-document: the same full path on the paper-scale workload
//     (50+ live templates), where Stage-2 scratch dominates.
//
// allocs/op is an allocation count (runtime.MemStats.Mallocs delta over the
// measured pass divided by documents) and is compared raw by benchdiff —
// lower is better, no machine-speed normalization. B/op and ns/op are
// informational: bytes scale with workload strings and nanoseconds with the
// host, so neither gates.

// AllocsSweep measures allocations per document for each hot-path stage.
func AllocsSweep(o Options) Result {
	o = o.Defaults()
	res := Result{ID: "allocs",
		Title:   fmt.Sprintf("Hot-path allocations per document (%d queries, %d items)", o.Queries, o.RSSItems),
		Columns: []string{"series", "allocs/op", "B/op (info)", "ns/op (info)"}}

	c := workload.DefaultRSS()
	rng := rand.New(rand.NewSource(o.Seed))
	qs := c.Queries(rng, o.Queries)
	srng := rand.New(rand.NewSource(o.Seed + 7))
	stream := c.Stream(srng, o.RSSItems)

	// Parse: re-parse the serialized stream. The warmup pass lets the
	// parser's pooled scratch reach steady state before measurement.
	texts := make([]string, len(stream))
	for i, d := range stream {
		texts[i] = d.XMLText()
	}
	parse := func() {
		for i, txt := range texts {
			if _, err := xmldoc.ParseString(txt, xmldoc.DocID(i+1), xmldoc.Timestamp(i+1)); err != nil {
				panic(err)
			}
		}
	}
	parse()
	res.Rows = append(res.Rows, allocsRow("rss parse", len(texts), parse))

	// Stage 1 in isolation: RunStage1 is the document-local half of the
	// two-phase split the ingest pipeline drives — NFA match plus witness
	// relation construction, no join-state mutation. The processor is
	// warmed with one full pass so templates, shards and pools are hot.
	p := core.NewProcessor(core.Config{ViewMaterialization: true})
	for _, q := range qs {
		p.MustRegister(q)
	}
	for _, d := range stream {
		p.Process("S", d)
	}
	res.Rows = append(res.Rows, allocsRow("rss stage1", len(stream), func() {
		for _, d := range stream {
			_ = p.RunStage1("S", d)
		}
	}))

	// Full path on a fresh warm processor: Stage 1 + Stage 2 + merge + GC.
	res.Rows = append(res.Rows, allocsRow("rss per-document", len(stream), allocsFullPass(qs, stream)))

	// Paper-scale workload: many live templates, Stage-2 heavy.
	ps := workload.DefaultPaperScale()
	prng := rand.New(rand.NewSource(o.Seed))
	pqs := ps.Queries(prng, o.ScaleQueries)
	psrng := rand.New(rand.NewSource(o.Seed + 7))
	pstream := ps.Stream(psrng, o.ScaleItems)
	res.Rows = append(res.Rows, allocsRow("scale per-document", len(pstream), allocsFullPass(pqs, pstream)))
	return res
}

// allocsFullPass returns a measurement closure that replays the stream
// through a warmed single-worker ViewMat processor. The warm pass populates
// templates, join state, caches and pools; the measured pass then sees the
// steady-state per-document allocation profile.
func allocsFullPass(qs []*xscl.Query, stream []*xmldoc.Document) func() {
	p := core.NewProcessor(core.Config{ViewMaterialization: true})
	for _, q := range qs {
		p.MustRegister(q)
	}
	for _, d := range stream {
		p.Process("S", d)
	}
	return func() {
		for _, d := range stream {
			p.Process("S", d)
		}
	}
}

// allocsRow runs fn (which processes n documents) between two MemStats
// reads and renders one result row. A GC settles outstanding garbage first
// so the deltas belong to the measured pass.
func allocsRow(series string, n int, fn func()) []string {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(n)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	ns := float64(elapsed.Nanoseconds()) / float64(n)
	return []string{series, fmt.Sprintf("%.1f", allocs), fmt.Sprintf("%.1f", bytes), fmt.Sprintf("%.1f", ns)}
}
