package main

import (
	"fmt"
	"slices"

	mmqjp "repro"
)

// runOracle replays the prefill and the first n stream documents, with their
// churn, through the sequential baseline (ProcessorSequential) restricted to
// the sampled subscriptions, and returns each document's match digest in
// global query ids.
//
// Initial subscriptions with the same text share one oracle subscription:
// they are all registered before the first document, so their match sets
// are equal. Churn subscriptions get their own, because a subscription
// joins only documents published after it.
func runOracle(w *benchWorkload, n int) ([]digest, error) {
	eng := mmqjp.New(mmqjp.Options{Processor: mmqjp.ProcessorSequential})
	members := map[mmqjp.QueryID][]int64{} // oracle id -> live global indexes
	local := map[int64]mmqjp.QueryID{}     // global index -> oracle id
	byText := map[string]mmqjp.QueryID{}   // initial texts only
	subscribe := func(idx int64, src string, initial bool) error {
		if !w.sampled(idx) {
			return nil
		}
		id, ok := byText[src]
		if !ok || !initial {
			var err error
			if id, err = eng.Subscribe(src); err != nil {
				return fmt.Errorf("oracle subscribe %d: %w", idx, err)
			}
			if initial {
				byText[src] = id
			}
		}
		members[id] = append(members[id], idx)
		local[idx] = id
		return nil
	}
	for i, q := range w.queries {
		if err := subscribe(int64(i), q, true); err != nil {
			return nil, err
		}
	}
	var out []digest
	publish := func(d doc) error {
		res, err := eng.PublishDoc(stream, nil, mmqjp.WithXML(d.xml, d.id, d.ts))
		if err != nil {
			return fmt.Errorf("oracle publish doc %d: %w", d.id, err)
		}
		var dg digest
		for _, m := range res.Matches() {
			for _, g := range members[m.Query] {
				dg.add(g, m.LeftTS, m.RightTS)
			}
		}
		out = append(out, dg)
		return nil
	}
	for _, d := range w.prefill {
		if err := publish(d); err != nil {
			return nil, err
		}
	}
	next := int64(len(w.queries))
	for i := 0; i < n && i < len(w.stream); i++ {
		if w.churn != nil {
			op := w.churn[i]
			if id, ok := local[op.unsub]; ok {
				delete(local, op.unsub)
				members[id] = slices.DeleteFunc(members[id], func(g int64) bool { return g == op.unsub })
				if len(members[id]) == 0 {
					delete(members, id)
					if err := eng.Unsubscribe(id); err != nil {
						return nil, fmt.Errorf("oracle unsubscribe %d: %w", op.unsub, err)
					}
				}
			}
			if err := subscribe(next, op.sub, false); err != nil {
				return nil, err
			}
			next++
		}
		if err := publish(w.stream[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// compareDigests counts the documents among the first n whose digests
// differ; n is clipped to the shorter sequence.
func compareDigests(a, b []digest, n int) (checked, mismatched int) {
	n = min(n, len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			mismatched++
		}
	}
	return n, mismatched
}
