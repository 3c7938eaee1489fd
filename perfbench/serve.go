package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"seqatpg/internal/atpg"
	"seqatpg/internal/netlist"
	"seqatpg/internal/rescache"
	"seqatpg/internal/service"
)

const (
	// serveRate is the open-loop arrival rate. serveNewShare of the
	// requests name a campaign not seen before; those cold jobs arrive
	// at 8/s, about a third of the cold-path capacity (25 jobs/s when
	// only cold jobs arrive, measured on a 2-vCPU VM); the cache hits
	// take the CPU up to about half.
	serveRate     = 40.0
	serveNewShare = 0.2
	// serveGap is the least time between two requests for the same
	// campaign. It is far above the cold-job latency, so every repeat
	// finds its campaign finished and cached, which makes the split
	// into cache hits and cold runs a property of the seed alone.
	serveGap = 500 * time.Millisecond
	// serveZipfS skews repeats toward the campaigns seen first.
	serveZipfS = 1.2
	// serveSLO is the request latency limit, several times the cold-job
	// median.
	serveSLO = 250 * time.Millisecond
	// serveBudgetPerGate and serveMaxFaults size one cold campaign:
	// the first serveMaxFaults..+3 faults of an original circuit at a
	// per-fault budget of serveBudgetPerGate gate evaluations per gate.
	serveBudgetPerGate = 20
	serveMaxFaults     = 4
	// The cache starts full of filler entries, so every cold result
	// stored in the measured phase evicts fillers and never a real
	// entry: evictions happen, and still every repeat is a hit.
	serveFillerBytes = 4 << 10
	// serveWarm campaigns are run and cached during setup.
	serveWarm     = 24
	serveCacheCap = 1 << 20
	servePoll     = 2 * time.Millisecond
)

// serveCampaign is one distinct campaign a request can name.
type serveCampaign struct {
	spec   service.Spec
	body   []byte
	coldID string // the job that ran it cold, once known
}

type serveReq struct {
	camp  int
	due   time.Duration // offset from the start of the measured phase
	isNew bool          // the campaign's first request: a cold run
}

type serveInstance struct {
	fs     *memFS
	cache  *rescache.Cache
	srv    *service.Server
	hs     *http.Server
	done   chan struct{} // closed when hs.Serve has returned
	url    string
	client *http.Client
	camps  []serveCampaign
	reqs   []serveReq
}

// setupServe synthesizes the 14 non-scf original circuits, generates
// the request schedule, fills a fresh result cache with filler entries,
// starts service.New with its Handler on a loopback listener, and warms
// it up: the first serveWarm campaigns run cold and are requested once
// more as cache hits, so the measured phase starts with a populated
// cache instead of a burst of cold runs.
func setupServe(ctx context.Context, e *env, tr *tracer) (instance, error) {
	orig, _, err := buildPairs(tr, notSCF, false)
	if err != nil {
		return nil, err
	}
	texts := make([]string, len(orig))
	for i, c := range orig {
		var b strings.Builder
		if err := netlist.Write(&b, c.c); err != nil {
			return nil, err
		}
		texts[i] = b.String()
	}
	inst := &serveInstance{fs: newMemFS(tr)}
	// Campaign n runs on circuit n mod 14 whatever the seed, so the
	// popular head of every schedule holds the same circuits and a
	// cache hit costs the same on average; the seed decides which
	// campaigns repeat, and when.
	rng := rand.New(rand.NewSource(e.seed))
	addCampaign := func() error {
		n := len(inst.camps)
		k := n % len(orig)
		spec := service.Spec{
			Name:        fmt.Sprintf("c%d", n),
			Netlist:     texts[k],
			Format:      "net",
			FaultBudget: int64(serveBudgetPerGate * orig[k].c.NumGates()),
			Retries:     1,
			MaxFaults:   serveMaxFaults + (n/len(orig))%4,
			Seed:        int64(n + 1),
		}
		body, err := json.Marshal(spec)
		inst.camps = append(inst.camps, serveCampaign{spec: spec, body: body})
		return err
	}
	last := map[int]time.Duration{}
	for len(inst.camps) < serveWarm {
		last[len(inst.camps)] = -serveGap
		if err := addCampaign(); err != nil {
			return nil, err
		}
	}

	total := max(20, int(serveRate*float64(e.seconds)+0.5))
	zipf := rand.NewZipf(rng, serveZipfS, 1, uint64(total+serveWarm))
	for i := 0; i < total; i++ {
		due := time.Duration(float64(i) / serveRate * float64(time.Second))
		r := serveReq{due: due, camp: -1}
		// New campaigns are spread evenly, so every seed offers the
		// same cold load; the seed decides which campaigns repeat.
		if int(float64(i+1)*serveNewShare) == int(float64(i)*serveNewShare) {
			// A repeat: Zipf rank over the campaigns seen so far,
			// moving to the next rank while the gap rule forbids one.
			k := int(zipf.Uint64()) % len(inst.camps)
			for tries := 0; tries < len(inst.camps); tries++ {
				c := (k + tries) % len(inst.camps)
				if due-last[c] >= serveGap {
					r.camp = c
					break
				}
			}
		}
		if r.camp < 0 {
			r.isNew, r.camp = true, len(inst.camps)
			if err := addCampaign(); err != nil {
				return nil, err
			}
		}
		last[r.camp] = due
		inst.reqs = append(inst.reqs, r)
	}

	if err := inst.start(); err != nil {
		inst.close()
		return nil, err
	}
	if err := inst.warm(ctx); err != nil {
		inst.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return inst, nil
}

// warm runs the first serveWarm campaigns cold, two at a time, waits
// until the cache holds them, and requests each once more as a hit.
func (s *serveInstance) warm(ctx context.Context) error {
	stored := s.cache.Stats().Stored
	for k := 0; k < serveWarm; k += 2 {
		for c := k; c < min(k+2, serveWarm); c++ {
			id, err := s.post(ctx, s.camps[c].body)
			if err != nil {
				return err
			}
			s.camps[c].coldID = id
		}
		for c := k; c < min(k+2, serveWarm); c++ {
			if err := s.wait(ctx, s.camps[c].coldID); err != nil {
				return err
			}
		}
	}
	for s.cache.Stats().Stored < stored+serveWarm {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(servePoll):
		}
	}
	for c := 0; c < serveWarm; c++ {
		id, err := s.post(ctx, s.camps[c].body)
		if err == nil {
			err = s.wait(ctx, id)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// start opens the cache, stores the fillers and starts the server.
func (s *serveInstance) start() error {
	var err error
	s.cache, err = rescache.Open(rescache.Options{Dir: "cache", CapBytes: serveCacheCap, FS: s.fs})
	if err != nil {
		return err
	}
	payload := bytes.Repeat([]byte("f"), serveFillerBytes)
	for i := 0; ; i++ {
		sum := sha256.Sum256([]byte("filler-" + strconv.Itoa(i)))
		if err := s.cache.Put(hex.EncodeToString(sum[:]), map[string][]byte{"filler": payload}); err != nil {
			return err
		}
		if s.cache.Stats().Evictions > 0 {
			break
		}
	}
	s.srv, err = service.New("jobs", service.Options{
		Workers:         2,
		CheckpointEvery: time.Hour, // checkpoints only at pass boundaries, an exact count
		QueueCap:        256,
		FS:              s.fs,
		Cache:           s.cache,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	s.client = &http.Client{Timeout: 30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 256, DisableCompression: true}}
	return nil
}

// post submits one job and returns its id.
func (s *serveInstance) post(ctx context.Context, body []byte) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var out struct{ ID string }
	if err := json.Unmarshal(data, &out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// wait polls a job until it is terminal; it fails unless it is done.
func (s *serveInstance) wait(ctx context.Context, id string) error {
	for {
		st, err := s.srv.Status(id)
		if err != nil {
			return err
		}
		switch st.State {
		case service.Done:
			return nil
		case service.Failed, service.Cancelled:
			return fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(servePoll):
		}
	}
}

func (s *serveInstance) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if s.hs != nil {
		_ = s.hs.Shutdown(ctx) // nothing is in flight once a phase has ended
		<-s.done
		s.client.CloseIdleConnections()
	}
	if s.srv != nil {
		_ = s.srv.Close(ctx) // no job is running once a phase has ended
	}
}

// reqResult is what the load generator learns about one request.
type reqResult struct {
	id      string
	ok      bool
	hit     bool // done when its POST returned
	sent    time.Time
	posted  time.Time // when the POST returned
	end     time.Time
	created time.Time
	started time.Time
	sum     *service.Summary
}

func (s *serveInstance) run(ctx context.Context, tr *tracer) (*phase, error) {
	ph := newPhase(serveSLO)
	cs0, fsyncs0, written0, busy0 := s.cache.Stats(), s.fs.fsyncs.Load(), s.fs.written.Load(), s.fs.busy.Load()
	res := make([]reqResult, len(s.reqs))
	var pending sync.Map // request index -> job id, for jobs not done at POST return
	var wg sync.WaitGroup
	sent := make(chan struct{}) // closed once every request has been posted
	pollDone := make(chan int)  // reports the deepest queue seen

	start := time.Now().Add(20 * time.Millisecond)
	go func() {
		depth := 0
		finished, sentCh := false, sent
		for {
			depth = max(depth, s.srv.Ready().QueueDepth)
			left := 0
			pending.Range(func(k, v any) bool {
				i := k.(int)
				st, err := s.srv.Status(v.(string))
				switch {
				case err != nil:
					pending.Delete(k)
				case st.State == service.Done || st.State == service.Failed || st.State == service.Cancelled:
					r := &res[i]
					r.ok = st.State == service.Done
					r.end, r.created, r.started, r.sum = st.Finished, st.Created, st.Started, st.Result
					if r.end.Before(st.Started) {
						// Served from the cache at pickup: the
						// finish time is the cold run's.
						r.end = st.Started
					}
					pending.Delete(k)
				default:
					left++
				}
				return true
			})
			if finished && left == 0 {
				pollDone <- depth
				return
			}
			select {
			case <-sentCh:
				finished, sentCh = true, nil
			case <-time.After(servePoll):
			}
		}
	}()

	for i := range s.reqs {
		due := start.Add(s.reqs[i].due)
		time.Sleep(time.Until(due))
		r := &res[i]
		r.sent = time.Now()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, err := s.post(ctx, s.camps[s.reqs[i].camp].body)
			r.posted = time.Now()
			r.id = id
			if err != nil {
				return
			}
			// A job served from the cache at submission is done
			// without ever having started.
			st, err := s.srv.Status(id)
			if err == nil && st.State == service.Done && st.Started.IsZero() {
				r.ok, r.hit, r.end, r.sum = true, true, r.posted, st.Result
				return
			}
			pending.Store(i, id)
		}(i)
	}
	wg.Wait()
	close(sent)
	depth := <-pollDone

	// Spans are recorded after the fact from the measured timestamps:
	// each request from its due time, its POST round trip, and for a
	// cold job the queue wait and the run on the server's clock.
	last := start
	for i := range res {
		r := &res[i]
		due := start.Add(s.reqs[i].due)
		if !r.ok {
			ph.op(0, false)
			continue
		}
		if r.end.After(last) {
			last = r.end
		}
		ph.op(r.end.Sub(due), true)
		op := int64(i + 1)
		root := tr.record("loadgen.request", 0, op, due, r.end)
		tr.record("service.submit", root, op, r.sent, r.posted)
		if !r.hit {
			tr.record("service.queue_wait", root, op, r.created, r.started)
			tr.record("service.run", root, op, r.started, r.end)
		}
	}
	ph.work = last.Sub(start)

	// Correctness: every campaign ran cold exactly once, every repeat
	// was served from the cache, and every hit's artifacts are the
	// cold run's bytes.
	news, repeats := 0, 0
	for i, r := range s.reqs {
		if !r.isNew {
			repeats++
			continue
		}
		news++
		if res[i].ok {
			s.camps[r.camp].coldID = res[i].id
		}
	}
	for i, r := range s.reqs {
		if !res[i].ok {
			continue
		}
		if res[i].sum == nil {
			return nil, mismatch("request %d: done without a result", i)
		}
		cold := s.camps[r.camp].coldID
		if r.isNew || cold == "" {
			continue
		}
		for _, name := range []string{"result.json", "vectors.vec"} {
			a, errA := s.fs.ReadFile(filepath.Join("jobs", cold, name))
			b, errB := s.fs.ReadFile(filepath.Join("jobs", res[i].id, name))
			if errA != nil || errB != nil || !bytes.Equal(a, b) {
				return nil, mismatch("request %d: %s differs from the cold run %s", i, name, cold)
			}
		}
	}
	// A worker stores its result in the cache just after the job turns
	// done; let the last stores land before comparing the counts.
	cs := s.cache.Stats()
	for settle := time.Now(); cs.Stored-cs0.Stored < int64(news) && time.Since(settle) < 10*time.Second; cs = s.cache.Stats() {
		time.Sleep(servePoll)
	}
	if ph.failed == 0 && (cs.Stored-cs0.Stored != int64(news) || cs.Hits-cs0.Hits != int64(repeats)) {
		return nil, mismatch("cache stored %d and hit %d, want %d cold runs and %d hits",
			cs.Stored-cs0.Stored, cs.Hits-cs0.Hits, news, repeats)
	}

	var detected, redundant, total int
	var st atpgSums
	var submits, waits, runs, lates []time.Duration
	for i, r := range res {
		lates = append(lates, r.sent.Sub(start.Add(s.reqs[i].due)))
		if r.id != "" {
			submits = append(submits, r.posted.Sub(r.sent))
		}
		if !r.ok {
			continue
		}
		if s.reqs[i].isNew {
			// Quality is that of the campaigns the service computed;
			// a hit replays its cold run's verdicts.
			detected += r.sum.Detected
			redundant += r.sum.Redundant
			total += r.sum.Total
			st.add(r.sum, r.end.Sub(r.started))
			waits = append(waits, r.started.Sub(r.created))
			runs = append(runs, r.end.Sub(r.started))
		}
	}
	var hitLat, coldLat []time.Duration
	for i, r := range res {
		if r.ok && r.hit {
			hitLat = append(hitLat, r.end.Sub(start.Add(s.reqs[i].due)))
		} else if r.ok {
			coldLat = append(coldLat, r.end.Sub(start.Add(s.reqs[i].due)))
		}
	}
	ph.notes = append(ph.notes,
		fmt.Sprintf("schedule: %d requests at %.0f/s, %d new campaigns, %d repeats", len(s.reqs), serveRate, news, repeats),
		fmt.Sprintf("cache hits: %d, latency p50 %.3f ms, p90 %.3f ms", len(hitLat), percentile(hitLat, 0.5), percentile(hitLat, 0.9)),
		fmt.Sprintf("cold runs: %d, latency p50 %.3f ms, p90 %.3f ms", len(coldLat), percentile(coldLat, 0.5), percentile(coldLat, 0.9)))
	ph.quality(detected, redundant, total)
	addATPGLayers(ph, st.stats, st.passes, st.jobs, st.busy)

	n := float64(len(s.reqs))
	ph.layer["service.submit_ms_p50"] = percentile(submits, 0.5)
	ph.layer["service.queue_wait_ms_p50"] = percentile(waits, 0.5)
	ph.layer["service.run_ms_p50"] = percentile(runs, 0.5)
	ph.samples["service.submit_ms_p50"] = len(submits)
	ph.samples["service.queue_wait_ms_p50"] = len(waits)
	ph.samples["service.run_ms_p50"] = len(runs)
	ph.samples["loadgen.late_p99_ms"] = len(lates)
	ph.layer["service.queue_depth_max"] = float64(depth)
	rejected, err := s.scrape(ctx, "atpg_submit_rejected_total")
	if err != nil {
		return nil, err
	}
	ph.layer["service.rejected"] = rejected
	ph.layer["rescache.hit_ratio"] = float64(cs.Hits-cs0.Hits) / n
	ph.layer["rescache.evictions"] = float64(cs.Evictions - cs0.Evictions)
	ph.layer["rescache.bytes"] = float64(cs.Bytes)
	fsyncs := s.fs.fsyncs.Load() - fsyncs0
	ph.layer["ioguard.fsyncs_per_op"] = float64(fsyncs) / n
	ph.layer["ioguard.write_busy_ms"] = ms(time.Duration(s.fs.busy.Load() - busy0))
	ph.layer["ioguard.bytes_written"] = float64(s.fs.written.Load() - written0)
	ph.layer["loadgen.sent"] = n
	ph.layer["loadgen.late_p99_ms"] = percentile(lates, 0.99)
	ph.exact["rescache.hits"] = cs.Hits - cs0.Hits
	ph.exact["rescache.evictions"] = cs.Evictions - cs0.Evictions
	ph.exact["ioguard.fsyncs"] = fsyncs

	if tr != nil {
		// service.Prepare runs inside every Submit; time it on each
		// request's spec from outside the server.
		var prep []time.Duration
		for i, r := range s.reqs {
			end := tr.begin("predict.prepare", 0, int64(i+1))
			t0 := time.Now()
			_, err := service.Prepare(s.camps[r.camp].spec)
			prep = append(prep, time.Since(t0))
			end()
			if err != nil {
				return nil, err
			}
		}
		ph.layer["predict.prepare_ms_p50"] = percentile(prep, 0.5)
		ph.samples["predict.prepare_ms_p50"] = len(prep)
	}
	return ph, nil
}

// scrape reads one unlabelled sample from the server's /metrics.
func (s *serveInstance) scrape(ctx context.Context, name string) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && f[0] == name {
			return strconv.ParseFloat(f[1], 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}

// atpgSums adds up the campaign summaries of the cold runs; their busy
// time is the server's Finished minus Started.
type atpgSums struct {
	stats  atpg.Stats
	passes int
	jobs   int
	busy   time.Duration
}

func (a *atpgSums) add(s *service.Summary, run time.Duration) {
	a.stats.Total += s.Total
	a.stats.Detected += s.Detected
	a.stats.Redundant += s.Redundant
	a.stats.Aborted += s.Aborted
	a.stats.Effort += s.Effort
	a.stats.Backtracks += s.Backtracks
	a.stats.LearnHits += s.LearnHits
	a.stats.LearnPrunes += s.LearnPrunes
	a.stats.LearnedCubes += s.LearnedCubes
	a.stats.Backjumps += s.Backjumps
	a.stats.Restarts += s.Restarts
	a.passes += s.Passes
	a.jobs++
	a.busy += run
}
