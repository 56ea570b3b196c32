package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/workload"
)

// stream is the name every generated document is published on.
const stream = "S"

// doc is one generated input document: the XML text the engine parses plus
// the id and timestamp it is published under.
type doc struct {
	id, ts int64
	xml    string
}

// churnOp is the subscription churn issued just before one stream document:
// unsubscribe the subscription with global index unsub, then subscribe sub,
// which receives the next global index.
type churnOp struct {
	unsub int64
	sub   string
}

// benchWorkload is one fully generated workload instance. Subscription
// global indexes equal the QueryIDs both the engine and the server assign:
// the initial queries take 0..len(queries)-1 in order, and each churn
// subscription takes the next index.
type benchWorkload struct {
	name    string
	seed    int64
	queries []string
	// prefill fills the join window before any timing starts; stream is
	// the continuation the timed phases publish, with fresh ids and
	// timestamps that follow the prefill's.
	prefill []doc
	stream  []doc
	// churn[i], when churn is non-nil, precedes stream[i].
	churn  []churnOp
	window int64
	// shared[i] reports whether the text of initial query i is the text
	// of at least oracleShared initial queries.
	shared []bool
	params
}

// oracleShared is how many initial subscriptions must share one text for
// the oracle to check all of them. On rss every match comes from such texts
// (many copies of a few joins), so a plain hash sample of subscriptions held
// 0.1–17% of rss matches, depending on the seed; the oracle evaluates each
// shared text once (see runOracle), so checking them all costs about as
// much as the hash sample.
const oracleShared = 6

// params are the per-workload run settings.
type params struct {
	// wireRate is the open-loop arrival rate of the wire phase, in
	// documents per second.
	wireRate float64
	// oracleTimed is how many timed stream documents the sequential
	// oracle checks: it replays the prefill, the in-process run's warm-up
	// and then this many documents of its timed phase. oracleEvery
	// samples one subscription in that many for it (see sampled).
	oracleTimed int
	oracleEvery int
	// setupReps is how many times the in-process set-up is repeated for
	// the setup_s median.
	setupReps int
}

// spec fixes a workload's shape at scale 1; scale shrinks query counts,
// windows and stream caps for smoke tests.
type spec struct {
	build func(rng *rand.Rand, w *benchWorkload, scale float64)
	// maxRate bounds the closed-loop rate, in docs/s, that the generated
	// stream must cover for the requested seconds.
	maxRate float64
	params
}

var specs = map[string]spec{
	"rss": {build: buildRSS, maxRate: 1500,
		params: params{wireRate: 80, oracleTimed: 300, oracleEvery: 10, setupReps: 90}},
	"filter-churn": {build: buildFilterChurn, maxRate: 600,
		params: params{wireRate: 25, oracleTimed: 100, oracleEvery: 5, setupReps: 27}},
}

// workloadNames lists the workloads in their documented order.
var workloadNames = []string{"rss", "filter-churn"}

// generate builds the named workload from seed. The stream holds enough
// documents for a warm-up second plus seconds of closed-loop publishing at
// the spec's maxRate. The same (name, seed, seconds, scale) always yields
// the same inputs, and a longer stream extends a shorter one: every
// generator draws queries from one rng and documents from another,
// sequentially.
func generate(name string, seed int64, seconds, scale float64) (*benchWorkload, error) {
	sp, ok := specs[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	w := &benchWorkload{name: name, seed: seed, params: sp.params}
	n := int(sp.maxRate*(seconds+1)) + 1
	w.stream = make([]doc, n)
	sp.build(rand.New(rand.NewSource(seed)), w, scale)
	copies := map[string]int{}
	for _, q := range w.queries {
		copies[q]++
	}
	w.shared = make([]bool, len(w.queries))
	for i, q := range w.queries {
		w.shared[i] = copies[q] >= oracleShared
	}
	if scale < 1 {
		w.oracleTimed = scaled(w.oracleTimed, scale)
		w.oracleEvery = 1 + w.oracleEvery/4
		w.setupReps = 1
	}
	return w, nil
}

// scaled shrinks n by scale, never below 1.
func scaled(n int, scale float64) int {
	if s := int(float64(n) * scale); s > 1 {
		return s
	}
	return 1
}

// docRNG derives the document generator from the query generator, so that
// query and document sequences are independent of each other's lengths.
func docRNG(rng *rand.Rand) *rand.Rand { return rand.New(rand.NewSource(rng.Int63())) }

// fillDocs generates the prefill and then the stream, with ids and
// timestamps advancing one unit per document from 1.
func fillDocs(w *benchWorkload, prefill int, gen func(i int) string) {
	w.prefill = make([]doc, prefill)
	for i := range w.prefill {
		w.prefill[i] = doc{id: int64(i + 1), ts: int64(i + 1), xml: gen(i)}
	}
	for i := range w.stream {
		j := prefill + i
		w.stream[i] = doc{id: int64(j + 1), ts: int64(j + 1), xml: gen(j)}
	}
}

// buildRSS is the Section-6.3 feed stream with about 1000 subscriptions; the
// generator's INF windows are replaced by a 1000-timestamp window so that
// state, and with it per-document cost, reaches a steady level.
func buildRSS(rng *rand.Rand, w *benchWorkload, scale float64) {
	c := workload.DefaultRSS()
	nq := scaled(1000, scale)
	w.window = int64(scaled(1000, scale))
	for _, q := range c.Queries(rng, nq) {
		w.queries = append(w.queries, strings.Replace(q.Source, "INF}", fmt.Sprintf("%d}", w.window), 1))
	}
	drng := docRNG(rng)
	fillDocs(w, int(w.window), func(i int) string { return c.Item(drng, i).XMLText() })
}

// Filter-churn document shape: a root with fcSections sections of fcGroups
// groups of fcLeaves leaves, about 200 elements. Element names come from
// per-level vocabularies, so a tree-pattern subscription over specific
// names is selective; leaf text comes from a small pool so the few join
// subscriptions find partners.
const (
	fcSections, fcGroups, fcLeaves = 10, 4, 4
	fcSecNames, fcGrpNames         = 20, 60
	fcLeafNames, fcValues          = 200, 50
	fcJoinWindow                   = 20
)

// buildFilterChurn is the filter workload: about 10k selective single-block
// tree-pattern subscriptions (tens of matches per document), 1% short-window
// joins, and one unsubscribe/subscribe pair before every stream document.
// The oldest subscription is churned each time, so churn works through the
// initial filters in index order and then through its own additions.
func buildFilterChurn(rng *rand.Rand, w *benchWorkload, scale float64) {
	nq := scaled(10000, scale)
	w.window = fcJoinWindow
	for i := 0; i < nq; i++ {
		if i%100 == 99 {
			w.queries = append(w.queries, fcJoin(rng))
		} else {
			w.queries = append(w.queries, fcFilter(rng))
		}
	}
	drng := docRNG(rng)
	fillDocs(w, fcJoinWindow, func(int) string { return fcDocument(drng) })
	// Churn victims: subscriptions in global index order, skipping the
	// joins, which stay for the whole run.
	crng := docRNG(rng)
	w.churn = make([]churnOp, len(w.stream))
	victim := int64(0)
	for i := range w.churn {
		for victim < int64(nq) && victim%100 == 99 {
			victim++
		}
		w.churn[i] = churnOp{unsub: victim, sub: fcFilter(crng)}
		victim++
	}
}

// fcFilter draws one single-block subscription: a specific section, group
// and leaf path, or a group/leaf pair anywhere.
func fcFilter(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return fmt.Sprintf("S//a%d/b%d/c%d", rng.Intn(fcSecNames), rng.Intn(fcGrpNames), rng.Intn(fcLeafNames))
	}
	return fmt.Sprintf("S//b%d/c%d", rng.Intn(fcGrpNames), rng.Intn(fcLeafNames))
}

// fcJoin draws one short-window join between two groups on a leaf value.
func fcJoin(rng *rand.Rand) string {
	return fmt.Sprintf("S//b%d->v0[./c%d->v1] FOLLOWED BY{v1=w1, %d} S//b%d->w0[./c%d->w1]",
		rng.Intn(fcGrpNames), rng.Intn(fcLeafNames), fcJoinWindow, rng.Intn(fcGrpNames), rng.Intn(fcLeafNames))
}

// fcDocument draws one nested document of about 200 elements.
func fcDocument(rng *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString("<doc>")
	for s := 0; s < fcSections; s++ {
		sn := rng.Intn(fcSecNames)
		fmt.Fprintf(&sb, "<a%d>", sn)
		for g := 0; g < fcGroups; g++ {
			gn := rng.Intn(fcGrpNames)
			fmt.Fprintf(&sb, "<b%d>", gn)
			for l := 0; l < fcLeaves; l++ {
				ln := rng.Intn(fcLeafNames)
				fmt.Fprintf(&sb, "<c%d>v%d</c%d>", ln, rng.Intn(fcValues), ln)
			}
			fmt.Fprintf(&sb, "</b%d>", gn)
		}
		fmt.Fprintf(&sb, "</a%d>", sn)
	}
	sb.WriteString("</doc>")
	return sb.String()
}
