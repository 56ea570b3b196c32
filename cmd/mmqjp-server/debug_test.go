package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	mmqjp "repro"
)

// startDebugTestServer runs an -async broker with the observability sidecar
// attached and returns both addresses.
func startDebugTestServer(t *testing.T) (brokerAddr, debugAddr string) {
	t.Helper()
	s := &server{
		async:  true,
		owners: map[mmqjp.QueryID]*client{},
	}
	s.m = newServerMetrics(func() *mmqjp.Engine { return s.eng })
	opts := mmqjp.Options{
		Processor: mmqjp.ProcessorViewMat, Parallelism: 2, PipelineDepth: 4,
		OnDocument: s.m.onDocument,
	}
	if _, err := s.initEngine(opts); err != nil {
		t.Fatal(err)
	}
	brokerAddr = serveOn(t, s)
	debugAddr, err := s.startDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return brokerAddr, debugAddr
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// lineRead reads one reply line under a deadline.
func lineRead(conn net.Conn, rd *bufio.Reader) (string, error) {
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := rd.ReadString('\n')
	return strings.TrimSpace(line), err
}

// TestServerMetricsHealthzUnderLoad scrapes /metrics and /healthz
// concurrently with -async publish load and subscribe/unsubscribe churn —
// the CI race job runs this under -race, so any unsynchronized access
// between the hot path, the scrape-time stat readers and the churn surfaces
// here.
func TestServerMetricsHealthzUnderLoad(t *testing.T) {
	brokerAddr, debugAddr := startDebugTestServer(t)

	const publishers = 3
	const pubs = 30
	var wg sync.WaitGroup
	errs := make(chan error, publishers+2)
	stop := make(chan struct{})

	// Publishers: pipelined async PUB bursts on private streams.
	for i := 0; i < publishers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.DialTimeout("tcp", brokerAddr, 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			rd := bufio.NewReader(conn)
			stream := fmt.Sprintf("S%d", i)
			fmt.Fprintf(conn, "SUB %s//a->x JOIN{x=y, 1000000} %s//b->y\n", stream, stream)
			if resp, err := lineRead(conn, rd); err != nil || !strings.HasPrefix(resp, "OK ") {
				errs <- fmt.Errorf("publisher %d: SUB -> %q, %v", i, resp, err)
				return
			}
			for p := 0; p < pubs; p++ {
				xml := "<a>k</a>"
				if p%2 == 1 {
					xml = "<b>k</b>"
				}
				fmt.Fprintf(conn, "PUB %s %d %s\n", stream, p+1, xml)
			}
			acks := 0
			for acks < pubs {
				resp, err := lineRead(conn, rd)
				if err != nil {
					errs <- fmt.Errorf("publisher %d: after %d acks: %v", i, acks, err)
					return
				}
				if strings.HasPrefix(resp, "OK ") {
					acks++
				}
			}
		}(i)
	}

	// Churner: subscribe and immediately unsubscribe until the scraper is
	// done, so scrape-time engine reads race live template adds/removes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := net.DialTimeout("tcp", brokerAddr, 2*time.Second)
		if err != nil {
			errs <- err
			return
		}
		defer conn.Close()
		rd := bufio.NewReader(conn)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			fmt.Fprintf(conn, "SUB C//a->x JOIN{x=y, 100} C//b->y\n")
			resp, err := lineRead(conn, rd)
			if err != nil || !strings.HasPrefix(resp, "OK ") {
				errs <- fmt.Errorf("churn %d: SUB -> %q, %v", i, resp, err)
				return
			}
			fmt.Fprintf(conn, "UNSUB %s\n", strings.TrimPrefix(resp, "OK "))
			if resp, err = lineRead(conn, rd); err != nil || !strings.HasPrefix(resp, "OK ") {
				errs <- fmt.Errorf("churn %d: UNSUB -> %q, %v", i, resp, err)
				return
			}
		}
	}()

	// Scraper: hammer /metrics and /healthz while the load runs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 20; i++ {
			if code, body := httpGet(t, "http://"+debugAddr+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
				errs <- fmt.Errorf("healthz scrape %d: %d %q", i, code, body)
				return
			}
			if code, _ := httpGet(t, "http://"+debugAddr+"/metrics"); code != http.StatusOK {
				errs <- fmt.Errorf("metrics scrape %d: status %d", i, code)
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// After the load: the exposition is well-formed and reflects it.
	code, body := httpGet(t, "http://"+debugAddr+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("final /metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE mmqjp_documents_total counter",
		"# TYPE mmqjp_stage1_seconds histogram",
		"mmqjp_stage1_seconds_bucket{le=\"+Inf\"}",
		"mmqjp_ingest_queue_depth",
		"mmqjp_plan_witness_total",
		"mmqjp_stream_publish_total{stream=\"S0\"} " + fmt.Sprint(pubs),
		"mmqjp_stream_matches_total{stream=\"S0\"}",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("final /metrics missing %q", want)
		}
	}
	// The per-document histograms saw every published document.
	var stage1Count int
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "mmqjp_stage1_seconds_count ") {
			fmt.Sscanf(line, "mmqjp_stage1_seconds_count %d", &stage1Count)
		}
	}
	if stage1Count < publishers*pubs {
		t.Errorf("stage1 histogram count = %d, want >= %d", stage1Count, publishers*pubs)
	}
}

// TestServerHealthzDebugEndpoints checks the sidecar's other routes: a pprof
// index renders, and /healthz answers fast on an idle engine.
func TestServerHealthzDebugEndpoints(t *testing.T) {
	_, debugAddr := startDebugTestServer(t)
	if code, body := httpGet(t, "http://"+debugAddr+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz -> %d %q", code, body)
	}
	if code, body := httpGet(t, "http://"+debugAddr+"/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ -> %d (goroutine link present: %v)", code, strings.Contains(body, "goroutine"))
	}
	if code, body := httpGet(t, "http://"+debugAddr+"/metrics"); code != http.StatusOK || !strings.Contains(body, "mmqjp_queries") {
		t.Errorf("/metrics -> %d (mmqjp_queries present: %v)", code, strings.Contains(body, "mmqjp_queries"))
	}
}
