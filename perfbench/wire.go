package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// wireResult is the outcome of the open-loop run against a server child.
type wireResult struct {
	docs       int       // stream PUBs sent, warm-up included
	warmDocs   int       // of which warm-up, excluded from the latencies
	okMs       []float64 // per timed PUB answered: due time to OK
	matchMs    []float64 // per timed document with a match: due time to first MATCH
	lagMs      []float64 // per timed PUB: how late the generator began to send it
	backlogMax int       // most PUBs sent but not yet answered, timed part
	attempted  int
	failed     int // ERR replies, unexpected ids and timeouts
	full       []digest
	engineMs   float64 // server-side engine wall time per stream document
	matchLines int     // MATCH lines read for the stream documents
	bytesIn    int64   // bytes read from the server for the stream documents
}

// server is a running mmqjp-server child.
type server struct {
	cmd             *exec.Cmd
	addr, debugAddr string
	logMu           sync.Mutex
	log             bytes.Buffer // the child's stderr
	exited          chan struct{}
}

// startServer launches the server binary on free loopback ports with the
// benchmark's engine configuration and waits until it is listening.
func startServer(bin string) (*server, error) {
	o := engineOptions()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0",
		"-viewmat=true",
		"-workers", strconv.Itoa(o.Parallelism),
		"-pipeline", strconv.Itoa(o.PipelineDepth),
		"-plan", "auto",
		"-explore", strconv.Itoa(o.PlanExploreEvery),
		"-split-threshold", "0",
		"-partitions", "0")
	stopWithParent(cmd)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		defer close(s.exited)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			s.logMu.Lock()
			if s.log.Len() < 64<<10 {
				s.log.WriteString(line + "\n")
			}
			if _, a, ok := strings.Cut(line, "debug endpoints on http://"); ok {
				s.debugAddr = a
			}
			if _, a, ok := strings.Cut(line, "listening on "); ok {
				s.addr = a
				close(ready)
			}
			s.logMu.Unlock()
		}
		// Wait may only run once the pipe is drained.
		_ = cmd.Wait()
	}()
	select {
	case <-ready:
		return s, nil
	case <-s.exited:
		return nil, fmt.Errorf("server exited before listening:\n%s", s.stderr())
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("server did not start listening within 30s:\n%s", s.stderr())
	}
}

// stderr returns what the child has written to its standard error so far.
func (s *server) stderr() string {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return s.log.String()
}

// stop kills the child and waits until it has exited.
func (s *server) stop() {
	_ = s.cmd.Process.Kill()
	<-s.exited
}

// scrapeEngineSeconds reads the server's per-document stage histograms from
// /metrics and returns the summed engine wall time and the document count.
func (s *server) scrapeEngineSeconds() (sum float64, count float64, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+s.debugAddr+"/metrics", nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, 0, fmt.Errorf("scrape metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, fmt.Errorf("scrape metrics: %w", err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, perr := strconv.ParseFloat(val, 64)
		if perr != nil {
			continue
		}
		switch name {
		case "mmqjp_stage1_seconds_sum", "mmqjp_stage2_seconds_sum", "mmqjp_merge_seconds_sum", "mmqjp_gc_seconds_sum":
			sum += v
		case "mmqjp_stage1_seconds_count":
			count = v
		}
	}
	return sum, count, nil
}

// reqKind classifies a request whose reply a connection waits for.
type reqKind int

const (
	reqSub   reqKind = iota // reply must be OK <expected id>
	reqUnsub                // reply must be OK <the id>
	reqPub                  // OK <matches>; its arrival time is recorded
	reqOK                   // any OK reply (PUBB, STATS)
)

// pendingReq is one request awaiting its in-order reply: the kind, the
// expected id (SUB/UNSUB) or stream document index (PUB).
type pendingReq struct {
	kind reqKind
	arg  int64
}

// client is one load-generator connection. Its reader goroutine matches
// OK/ERR replies to requests in order and folds MATCH lines into the shared
// per-document digests.
type client struct {
	conn net.Conn
	w    *bufio.Writer
	run  *wireRun

	mu       sync.Mutex
	pending  []pendingReq
	answered int
	notify   chan struct{} // capacity 1: a wake-up, not a queue
	done     chan struct{} // closed when the reader has exited
}

// wireRun is the shared state of one wire phase.
type wireRun struct {
	mu         sync.Mutex
	full       []digest    // per document index
	firstMatch []time.Time // per document index
	okAt       []time.Time // per stream document index
	pubsOK     int         // stream PUBs answered
	failed     int
	lines      int   // MATCH lines read
	bytesIn    int64 // bytes read on all connections
}

func dial(addr string, run *wireRun) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial server: %w", err)
	}
	c := &client{conn: conn, w: bufio.NewWriterSize(conn, 64<<10), run: run,
		notify: make(chan struct{}, 1), done: make(chan struct{})}
	go c.read()
	return c, nil
}

// send queues one request line and what its reply should be matched to.
func (c *client) send(line string, p pendingReq) error {
	c.mu.Lock()
	c.pending = append(c.pending, p)
	c.mu.Unlock()
	_, err := c.w.WriteString(line + "\n")
	return err
}

func (c *client) flush() error { return c.w.Flush() }

// close closes the connection and waits for the reader to exit.
func (c *client) close() {
	_ = c.conn.Close()
	<-c.done
}

// progress returns how many replies have arrived so far and how many requests
// have been sent.
func (c *client) progress() (answered, sent int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.answered, len(c.pending)
}

// wait blocks until every request sent so far is answered or the deadline
// passes; it reports whether all were answered.
func (c *client) wait(deadline time.Time) bool {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for {
		answered, sent := c.progress()
		if answered >= sent {
			return true
		}
		select {
		case <-c.notify:
		case <-c.done:
			answered, sent = c.progress()
			return answered >= sent
		case <-timer.C:
			return false
		}
	}
}

func (c *client) read() {
	defer close(c.done)
	rd := bufio.NewReaderSize(c.conn, 256<<10)
	run := c.run
	for {
		line, err := rd.ReadString('\n')
		now := time.Now()
		if err != nil {
			return
		}
		run.mu.Lock()
		run.bytesIn += int64(len(line))
		run.mu.Unlock()
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "MATCH ") {
			run.match(line, now)
			continue
		}
		c.mu.Lock()
		if c.answered >= len(c.pending) {
			c.mu.Unlock()
			run.fail()
			continue
		}
		p := c.pending[c.answered]
		c.answered++
		c.mu.Unlock()
		run.reply(p, line, now)
		select {
		case c.notify <- struct{}{}:
		default:
		}
	}
}

// match folds one "MATCH <qid> left=<doc>@<ts> right=<doc>@<ts>" line into
// the digest of the document it belongs to: the later of the two
// timestamps, since timestamps advance one unit per document from 1.
func (run *wireRun) match(line string, now time.Time) {
	f := strings.Fields(line)
	var qid, lts, rts int64
	var err error
	if len(f) == 4 {
		qid, err = strconv.ParseInt(f[1], 10, 64)
		if err == nil {
			lts, err = matchTS(f[2], "left=")
		}
		if err == nil {
			rts, err = matchTS(f[3], "right=")
		}
	}
	idx := int(max(lts, rts)) - 1
	run.mu.Lock()
	defer run.mu.Unlock()
	if len(f) != 4 || err != nil || idx < 0 || idx >= len(run.full) {
		run.failed++
		return
	}
	run.lines++
	run.full[idx].add(qid, lts, rts)
	if run.firstMatch[idx].IsZero() {
		run.firstMatch[idx] = now
	}
}

func matchTS(field, prefix string) (int64, error) {
	_, ts, ok := strings.Cut(strings.TrimPrefix(field, prefix), "@")
	if !ok {
		return 0, fmt.Errorf("bad match field %q", field)
	}
	return strconv.ParseInt(ts, 10, 64)
}

// reply checks one in-order reply against its request.
func (run *wireRun) reply(p pendingReq, line string, now time.Time) {
	ok := strings.HasPrefix(line, "OK")
	switch p.kind {
	case reqSub, reqUnsub:
		ok = line == "OK "+strconv.FormatInt(p.arg, 10)
	case reqPub:
		run.mu.Lock()
		run.okAt[p.arg] = now
		run.pubsOK++
		run.mu.Unlock()
	}
	if !ok {
		run.fail()
	}
}

func (run *wireRun) fail() {
	run.mu.Lock()
	run.failed++
	run.mu.Unlock()
}

// runWire starts a server child, subscribes the workload's queries over one
// subscriber connection (the queries the churn will remove are subscribed
// on the publisher connection, which alone may unsubscribe them), prefills
// the window with one PUBB batch, then publishes the continuation stream as
// an open loop at w.wireRate for a warm-up and then dur. Churn requests
// precede their PUB on the publisher connection, so the server applies them
// in the same order as the in-process run.
func runWire(w *benchWorkload, bin string, dur time.Duration) (res *wireResult, err error) {
	srv, err := startServer(bin)
	if err != nil {
		return nil, err
	}
	defer func() {
		srv.stop()
		if err != nil {
			err = fmt.Errorf("%w\nserver stderr:\n%s", err, srv.stderr())
		}
	}()

	// The first nWarm stream documents warm the server up on the same
	// schedule; latency figures cover the rest.
	sched := schedule{rate: w.wireRate}
	nWarm := min(sched.count(warmupFor(dur)), len(w.stream))
	n := min(nWarm+sched.count(dur), len(w.stream))
	run := &wireRun{}
	run.full = make([]digest, len(w.prefill)+n)
	run.firstMatch = make([]time.Time, len(w.prefill)+n)
	run.okAt = make([]time.Time, n)
	res = &wireResult{docs: n, warmDocs: nWarm}

	pub, err := dial(srv.addr, run)
	if err != nil {
		return nil, err
	}
	defer pub.close()
	sub, err := dial(srv.addr, run)
	if err != nil {
		return nil, err
	}
	defer sub.close()

	// Initial queries the timed churn removes belong to the publisher.
	owned := 0
	if w.churn != nil {
		for _, op := range w.churn[:n] {
			if op.unsub < int64(len(w.queries)) {
				owned = int(op.unsub) + 1
			}
		}
	}
	for i, q := range w.queries {
		c := sub
		if i < owned {
			c = pub
		}
		if i == owned && owned > 0 {
			// Ids follow arrival order across connections: the
			// publisher's subscriptions must all land first.
			if err := pub.flush(); err != nil {
				return nil, err
			}
			if !pub.wait(time.Now().Add(60 * time.Second)) {
				return nil, fmt.Errorf("publisher subscriptions not answered")
			}
		}
		if err := c.send("SUB "+q, pendingReq{kind: reqSub, arg: int64(i)}); err != nil {
			return nil, err
		}
	}
	for _, c := range []*client{pub, sub} {
		if err := c.flush(); err != nil {
			return nil, err
		}
		if !c.wait(time.Now().Add(60 * time.Second)) {
			return nil, fmt.Errorf("subscriptions not answered")
		}
	}
	res.attempted += len(w.queries)

	var sb strings.Builder
	fmt.Fprintf(&sb, "PUBB %s %d\n", stream, len(w.prefill))
	for _, d := range w.prefill {
		fmt.Fprintf(&sb, "%d %s\n", d.ts, d.xml)
	}
	if err := pub.send(strings.TrimSuffix(sb.String(), "\n"), pendingReq{kind: reqOK}); err != nil {
		return nil, err
	}
	if err := pub.flush(); err != nil {
		return nil, err
	}
	if !pub.wait(time.Now().Add(120 * time.Second)) {
		return nil, fmt.Errorf("prefill batch not answered")
	}
	res.attempted += len(w.prefill)
	if err := syncMatches(sub); err != nil {
		return nil, err
	}

	sum0, cnt0, err := srv.scrapeEngineSeconds()
	if err != nil {
		return nil, err
	}
	run.mu.Lock()
	lines0, bytes0 := run.lines, run.bytesIn
	run.mu.Unlock()

	sched.start = time.Now().Add(5 * time.Millisecond)
	due := make([]time.Time, n)
	nextID := int64(len(w.queries))
	for i := 0; i < n; i++ {
		due[i] = sched.due(i)
		waitUntil(due[i])
		lag := time.Since(due[i])
		if w.churn != nil {
			op := w.churn[i]
			if err := pub.send(fmt.Sprintf("UNSUB %d", op.unsub), pendingReq{kind: reqUnsub, arg: op.unsub}); err != nil {
				return nil, err
			}
			if err := pub.send("SUB "+op.sub, pendingReq{kind: reqSub, arg: nextID}); err != nil {
				return nil, err
			}
			nextID++
			res.attempted += 2
		}
		d := w.stream[i]
		if err := pub.send(fmt.Sprintf("PUB %s %d %s", stream, d.ts, d.xml), pendingReq{kind: reqPub, arg: int64(i)}); err != nil {
			return nil, err
		}
		if err := pub.flush(); err != nil {
			return nil, err
		}
		res.attempted++
		if i < nWarm {
			continue
		}
		res.lagMs = append(res.lagMs, ms(lag))
		run.mu.Lock()
		backlog := i + 1 - run.pubsOK
		run.mu.Unlock()
		res.backlogMax = max(res.backlogMax, backlog)
	}
	drained := pub.wait(time.Now().Add(30 * time.Second))
	if drained {
		if err := syncMatches(sub); err != nil {
			return nil, err
		}
	}
	sum1, cnt1, err := srv.scrapeEngineSeconds()
	if err != nil {
		return nil, err
	}

	run.mu.Lock()
	defer run.mu.Unlock()
	for i := 0; i < n; i++ {
		if run.okAt[i].IsZero() {
			run.failed++ // timed out
			continue
		}
		if i < nWarm {
			continue
		}
		res.okMs = append(res.okMs, ms(run.okAt[i].Sub(due[i])))
		if t := run.firstMatch[len(w.prefill)+i]; !t.IsZero() {
			res.matchMs = append(res.matchMs, ms(t.Sub(due[i])))
		}
	}
	res.failed = run.failed
	res.full = run.full
	res.matchLines = run.lines - lines0
	res.bytesIn = run.bytesIn - bytes0
	if cnt1 > cnt0 {
		res.engineMs = (sum1 - sum0) / (cnt1 - cnt0) * 1000
	}
	return res, nil
}

// syncMatches makes sure every MATCH line the server has written to c is
// read: the server writes a document's MATCH lines before acknowledging its
// PUB, so once every PUB is answered, a STATS reply on c arrives after them.
func syncMatches(c *client) error {
	if err := c.send("STATS", pendingReq{kind: reqOK}); err != nil {
		return err
	}
	if err := c.flush(); err != nil {
		return err
	}
	if !c.wait(time.Now().Add(30 * time.Second)) {
		return fmt.Errorf("STATS not answered")
	}
	return nil
}
