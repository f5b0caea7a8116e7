package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"poise/internal/poise"
	"poise/internal/serve"
	"poise/internal/traceio"
)

// serveMixedDef: the decision service under a read/write mix. Two
// closed-loop clients, each on one keep-alive connection, POST /decide
// batches whose memo keys follow a Zipf-like law over a key space
// large enough that the memo keeps growing; every serveIngestEvery-th
// request of the first client is a JSON /ingest that appends to the
// sample log, retrains, swaps the model and so empties the memo. A
// gain on the hit path that costs the retrain/swap path (or the
// reverse) shows here.
var serveMixedDef = workloadDef{
	name: "serve-mixed",
	why:  "decision service on loopback: 2 closed-loop clients of /decide batches with Zipf keys, one also sending /ingest records that retrain",
	load: "closed loop, 2 clients on one keep-alive connection each; a fresh service (boot weights, empty memo and sample log) every pass, 200 untimed warm-up requests per client",
	setup: func(seed int64, dir string) (instance, error) {
		return newServeMix(seed, dir)
	},
}

const (
	serveClients     = 2       // closed-loop clients, one connection each
	serveRequests    = 3000    // requests per client per pass
	serveBatch       = 8       // decisions per /decide request
	serveIngestEvery = 60      // every n-th request of client 0 is an /ingest
	serveKeys        = 1 << 20 // memo key space
	serveZipfS       = 1.1     // Zipf exponent of key popularity
	serveWarmup      = 200     // untimed requests per client per pass
	serveSamples     = 4       // samples per ingested record
	serveMaxN        = 48      // scheduler warp bounds drawn from 1..serveMaxN
)

// serveMix holds the seeded request sequences; each pass boots a fresh
// service on a fresh sample log, so every pass starts from the same
// model and an empty memo and does identical work.
type serveMix struct {
	seed    int64
	dir     string
	weights poise.Weights
	// keys[c][i] are the memo-key indices of client c's request i
	// (serveBatch each); maxN likewise.
	keys    [serveClients][][serveBatch]int32
	maxN    [serveClients][][serveBatch]int8
	records []serve.Record
	passes  int

	srv    *service // booted and ready for the next pass
	closed bool
}

func newServeMix(seed int64, dir string) (*serveMix, error) {
	w, ok := poise.DefaultWeights()
	if !ok {
		return nil, errors.New("no embedded Poise weights")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m := &serveMix{seed: seed, dir: dir, weights: w}
	for c := 0; c < serveClients; c++ {
		m.keys[c], m.maxN[c] = keySequence(seed, c, serveWarmup+serveRequests)
	}
	m.records = ingestRecords(seed, serveRequests/serveIngestEvery)
	srv, err := m.boot()
	if err != nil {
		return nil, err
	}
	m.srv = srv
	return m, nil
}

// keySequence draws n requests' memo keys (Zipf over serveKeys) and
// warp bounds for client c.
func keySequence(seed int64, c, n int) ([][serveBatch]int32, [][serveBatch]int8) {
	r := rand.New(rand.NewSource(seed*7919 + int64(c) + 1))
	z := rand.NewZipf(r, serveZipfS, 1, serveKeys-1)
	keys := make([][serveBatch]int32, n)
	maxN := make([][serveBatch]int8, n)
	for i := range keys {
		for j := 0; j < serveBatch; j++ {
			keys[i][j] = int32(z.Uint64())
			maxN[i][j] = int8(1 + r.Intn(serveMaxN))
		}
	}
	return keys, maxN
}

// splitmix is a 64-bit mixer; features derive from (seed, key) through
// it, so a key always carries the same feature vector.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// features returns key's Table II feature vector, each element in
// [0, 1).
func features(seed int64, key int32) poise.Vector {
	var v poise.Vector
	h := splitmix(uint64(seed)<<32 ^ uint64(uint32(key)))
	for i := range v {
		h = splitmix(h)
		v[i] = float64(h>>11) / (1 << 53)
	}
	return v
}

func keyName(key int32) string { return fmt.Sprintf("k%07d", key) }

// ingestRecords builds n synthetic ingest records whose targets follow
// a fixed smooth function of the features plus seeded noise, so every
// retrain fits.
func ingestRecords(seed int64, n int) []serve.Record {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	sig := func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
	recs := make([]serve.Record, n)
	for i := range recs {
		rec := serve.Record{Signature: traceio.Signature{Workload: fmt.Sprintf("synth%04d", i), Kernels: serveSamples}}
		for j := 0; j < serveSamples; j++ {
			var x poise.Vector
			for f := range x {
				x[f] = r.Float64()
			}
			tn := 1 + 22*sig(2*x[0]-1.5*x[3]+x[6]-0.5+0.3*r.NormFloat64())
			tp := 1 + (tn-1)*sig(1.5*x[1]-x[5]+0.3*r.NormFloat64())
			rec.Samples = append(rec.Samples, poise.Sample{
				Kernel: fmt.Sprintf("synth%04d#%d", i, j), X: x,
				TargetN: tn, TargetP: tp,
				RawN: int(math.Round(tn)), RawP: int(math.Round(tp)), MaxN: 24,
			})
		}
		recs[i] = rec
	}
	return recs
}

// service is one booted decision service and its clients.
type service struct {
	srv     *serve.Server
	cancel  context.CancelFunc
	done    chan error
	clients [serveClients]*serve.Client
	trans   [serveClients]*http.Transport
}

func (m *serveMix) boot() (*service, error) {
	log := filepath.Join(m.dir, fmt.Sprintf("samples%d.jsonl", m.passes))
	srv, err := serve.New(serve.Config{Weights: m.weights, SampleLog: log})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &service{srv: srv, cancel: cancel, done: make(chan error, 1)}
	addrCh := make(chan string, 1)
	go func() { s.done <- srv.Serve(ctx, "127.0.0.1:0", addrCh) }()
	select {
	case addr := <-addrCh:
		for c := range s.clients {
			s.trans[c] = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			s.clients[c] = &serve.Client{Base: "http://" + addr, Retries: 1,
				HTTP: &http.Client{Transport: s.trans[c], Timeout: 30 * time.Second}}
		}
		return s, nil
	case err := <-s.done:
		cancel()
		return nil, fmt.Errorf("decision service did not start: %v", err)
	}
}

// stop shuts the service down and waits for it.
func (s *service) stop() error {
	s.cancel()
	err := <-s.done
	for _, t := range s.trans {
		t.CloseIdleConnections()
	}
	return err
}

func (m *serveMix) warmup() error { return nil }

func (m *serveMix) close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	if m.srv != nil {
		return m.srv.stop()
	}
	return nil
}

// decision is one checked /decide answer.
type decision struct {
	key          int32
	maxN         int8
	n, p         int
	version      int64 // the version the reply names
	versionAfter int64 // the service's version once the reply arrived
	request      int   // request index, for counting failed requests
}

// clientLog is what one client observed in a pass.
type clientLog struct {
	decisions []decision
	decideUS  []float64
	ingestMS  []float64
	requests  int
	errs      []error
}

// request builds client c's i-th /decide batch.
func (m *serveMix) request(c, i int) []serve.DecideRequest {
	reqs := make([]serve.DecideRequest, serveBatch)
	for j := range reqs {
		key := m.keys[c][i][j]
		reqs[j] = serve.DecideRequest{Key: keyName(key), X: features(m.seed, key), MaxN: int(m.maxN[c][i][j])}
	}
	return reqs
}

func (m *serveMix) pass(sp *spans, g *gate) (passStats, error) {
	s := m.srv
	if s == nil {
		var err error
		if s, err = m.boot(); err != nil {
			return passStats{}, err
		}
	}
	m.srv = nil
	m.passes++
	ctx := context.Background()

	// Warm every connection with requests from the untimed prefix of
	// each client's sequence.
	for c := 0; c < serveClients; c++ {
		for i := 0; i < serveWarmup; i++ {
			if _, err := s.clients[c].Decide(ctx, m.request(c, i)); err != nil {
				s.stop()
				return passStats{}, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	before := s.srv.Stats()
	var mu sync.Mutex
	versions := map[int64]poise.Weights{}
	w0, v0 := s.srv.Decider().Weights()
	versions[v0] = w0

	logs := make([]clientLog, serveClients)
	var wg sync.WaitGroup
	watch := startWatch()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lg := &logs[c]
			cl := s.clients[c]
			next := 0
			for i := serveWarmup; i < serveWarmup+serveRequests; i++ {
				lg.requests++
				if c == 0 && (i-serveWarmup)%serveIngestEvery == serveIngestEvery-1 && next < len(m.records) {
					rec := m.records[next]
					next++
					t := time.Now()
					rep, err := cl.IngestRecord(ctx, rec)
					lg.ingestMS = append(lg.ingestMS, float64(time.Since(t).Nanoseconds())/1e6)
					if err == nil && rep.Samples != len(rec.Samples) {
						err = fmt.Errorf("ingest %s: reply counts %d samples, sent %d", rec.Signature.Workload, rep.Samples, len(rec.Samples))
					}
					if err != nil {
						lg.errs = append(lg.errs, err)
						continue
					}
					// Fold the record before the next request, so every
					// model version is captured for the reply check.
					s.srv.Flush()
					w, v := s.srv.Decider().Weights()
					mu.Lock()
					versions[v] = w
					mu.Unlock()
					continue
				}
				reqs := m.request(c, i)
				t := time.Now()
				reps, err := cl.Decide(ctx, reqs)
				lg.decideUS = append(lg.decideUS, float64(time.Since(t).Nanoseconds())/1e3)
				after := s.srv.Decider().Version()
				if err == nil && len(reps) != serveBatch {
					err = fmt.Errorf("decide: %d replies to %d requests", len(reps), serveBatch)
				}
				if err != nil {
					lg.errs = append(lg.errs, err)
					continue
				}
				for j, r := range reps {
					lg.decisions = append(lg.decisions, decision{key: m.keys[c][i][j], maxN: m.maxN[c][i][j],
						n: r.N, p: r.P, version: r.Version, versionAfter: after, request: i})
				}
			}
		}(c)
	}
	wg.Wait()
	wall, cpu := watch.stop()
	after := s.srv.Stats()
	if err := s.stop(); err != nil {
		return passStats{}, fmt.Errorf("decision service: %w", err)
	}

	// Check every reply against an in-process Decider on the weights of
	// the version the reply names. A swap that lands while a batch is
	// being answered can serve later decisions of that batch from the
	// newer model, so a decision also passes on a version installed
	// before its reply arrived; those are counted, not failed.
	refs := map[int64]*serve.Decider{}
	for v, w := range versions {
		d, err := serve.NewDecider(w)
		if err != nil {
			return passStats{}, err
		}
		refs[v] = d
	}
	var stale float64
	ps := passStats{wall: wall, cpu: cpu, latency: map[string][]float64{}}
	for c := range logs {
		lg := &logs[c]
		failedReq := map[int]string{}
		for _, d := range lg.decisions {
			why, newer := m.checkDecision(refs, d)
			if why != "" {
				failedReq[d.request] = why
			}
			if newer {
				stale++
			}
			ps.work++
		}
		for _, err := range lg.errs {
			g.fail("client %d: %v", c, err)
		}
		for _, why := range failedReq {
			g.fail("client %d: decide reply %s", c, why)
		}
		for i := 0; i < lg.requests-len(lg.errs)-len(failedReq); i++ {
			g.ok()
		}
		ps.latency["decide_us"] = append(ps.latency["decide_us"], lg.decideUS...)
		ps.latency["ingest_ms"] = append(ps.latency["ingest_ms"], lg.ingestMS...)
	}
	if n := after.RetrainErrors - before.RetrainErrors; n > 0 {
		g.fail("%d retrains failed", n)
	}
	decisions := after.Decisions - before.Decisions
	ps.counters = map[string]float64{
		"decider.hit_ratio":           ratio(float64(after.CacheHits-before.CacheHits), float64(decisions)),
		"serve.retrains":              float64(after.Retrains - before.Retrains),
		"serve.model_version":         float64(after.WeightsVersion),
		"serve.stale_label_decisions": stale,
	}

	// Boot the next pass's service now, outside the timed section.
	next, err := m.boot()
	if err != nil {
		return passStats{}, err
	}
	m.srv = next
	return ps, nil
}

// checkDecision returns why d is wrong ("" when it is right) and
// whether it matched a model newer than the one its reply names.
func (m *serveMix) checkDecision(refs map[int64]*serve.Decider, d decision) (string, bool) {
	if d.p < 1 || d.p > d.n || d.n > int(d.maxN) {
		return fmt.Sprintf("(%d,%d) for key %s violates 1 <= p <= n <= maxN=%d", d.n, d.p, keyName(d.key), d.maxN), false
	}
	x := features(m.seed, d.key)
	for v := d.version; v <= d.versionAfter; v++ {
		ref, ok := refs[v]
		if !ok {
			continue
		}
		n, p, _ := ref.Decide(keyName(d.key), x, int(d.maxN))
		if n == d.n && p == d.p {
			return "", v != d.version
		}
	}
	return fmt.Sprintf("(%d,%d) for key %s maxN=%d differs from the in-process Decider at version %d",
		d.n, d.p, keyName(d.key), d.maxN, d.version), false
}
