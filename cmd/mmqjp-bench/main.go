// Command mmqjp-bench regenerates the tables and figures of the paper's
// evaluation section. Each experiment prints the series the corresponding
// figure plots.
//
// Usage:
//
//	mmqjp-bench -experiment fig8            # one experiment
//	mmqjp-bench -experiment all             # the full suite (paper order)
//	mmqjp-bench -experiment workers,pipeline -json BENCH.json
//	mmqjp-bench -experiment fig16 -rss-items 225000 -queries-sweep 10,100,1000,10000,100000,1000000
//
// With -json the results are additionally written to the given file as a
// JSON array of result tables — the format cmd/benchdiff compares for the
// CI bench-regression gate.
//
// Paper-scale runs take substantially longer than the defaults; see the
// README's "Benchmarks" section for each experiment and its flags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "comma-separated experiment ids (table3, fig8..fig16, workers, pipeline, churn, publishers, planning, scale, allocs) or 'all'")
		seed       = flag.Int64("seed", 1, "workload generator seed")
		sweep      = flag.String("queries-sweep", "", "comma-separated query counts for fig8/11/16 (default 10,100,1000,10000,100000)")
		workers    = flag.String("workers-sweep", "", "comma-separated worker counts for the 'workers' experiment (default 1,2,4,8)")
		pipeline   = flag.String("pipeline-sweep", "", "comma-separated pipeline depths for the 'pipeline' experiment (default 1,2,4,8)")
		churn      = flag.String("churn-sweep", "", "comma-separated per-chunk churn counts for the 'churn' experiment (default 0,8,64)")
		publishers = flag.String("publishers-sweep", "", "comma-separated publisher counts for the 'publishers' experiment (default 1,2,4,8)")
		queries    = flag.Int("queries", 1000, "query count for fig9/10/12/13")
		bigQueries = flag.Int("big-queries", 100000, "query count for fig14/15")
		rssItems   = flag.Int("rss-items", 5000, "stream length for fig16 (paper: 225000)")
		seqItems   = flag.Int("seq-rss-items", 0, "stream length cap for fig16 sequential runs (default: rss-items)")
		scaleQs    = flag.Int("scale-queries", 0, "query count for the 'scale' experiment (default 1500; paper-scale: 100000)")
		scaleItems = flag.Int("scale-items", 0, "stream length for the 'scale' experiment (default 250; paper-scale: 2000)")
		jsonPath   = flag.String("json", "", "also write the results to this file as JSON (for benchdiff)")
	)
	flag.Parse()

	opts := bench.Options{
		Seed:         *seed,
		Queries:      *queries,
		BigQueries:   *bigQueries,
		RSSItems:     *rssItems,
		SeqRSSItems:  *seqItems,
		ScaleQueries: *scaleQs,
		ScaleItems:   *scaleItems,
	}
	parseInts := func(flagName, val string) []int {
		var out []int
		for _, part := range strings.Split(val, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fmt.Fprintf(os.Stderr, "mmqjp-bench: bad %s entry %q: %v\n", flagName, part, err)
				os.Exit(2)
			}
			out = append(out, n)
		}
		return out
	}
	if *sweep != "" {
		opts.QueryCounts = parseInts("-queries-sweep", *sweep)
	}
	if *workers != "" {
		opts.WorkerCounts = parseInts("-workers-sweep", *workers)
	}
	if *pipeline != "" {
		opts.PipelineDepths = parseInts("-pipeline-sweep", *pipeline)
	}
	if *churn != "" {
		opts.ChurnCounts = parseInts("-churn-sweep", *churn)
	}
	if *publishers != "" {
		opts.PublisherCounts = parseInts("-publishers-sweep", *publishers)
	}

	var ids []string
	for _, id := range strings.Split(*experiment, ",") {
		id = strings.TrimSpace(id)
		if id == "all" {
			ids = append(ids, bench.All()...)
			continue
		}
		if id != "" {
			ids = append(ids, id)
		}
	}
	var results []bench.Result
	for _, id := range ids {
		start := time.Now()
		res, err := bench.Run(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmqjp-bench: %v\n", err)
			os.Exit(2)
		}
		results = append(results, res)
		fmt.Println(res.String())
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmqjp-bench: marshal results: %v\n", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "mmqjp-bench: write %s: %v\n", *jsonPath, err)
			os.Exit(2)
		}
		fmt.Printf("wrote %d result tables to %s\n", len(results), *jsonPath)
	}
}
