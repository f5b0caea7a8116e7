package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"poise/internal/config"
	"poise/internal/poise"
	"poise/internal/profile"
	"poise/internal/sim"
	"poise/internal/traceio"
)

// Config assembles a decision service.
type Config struct {
	// Weights is the boot model (version 1).
	Weights poise.Weights

	// ProfileDir backs GET /table: the profile store the static policy
	// table is derived from. Empty disables the endpoint.
	ProfileDir string
	// Params scores the table derivation and admits ingested kernels;
	// the zero value means config.DefaultPoise().
	Params config.PoiseParams

	// SimCfg and Sweep drive sample derivation for raw-trace ingests
	// (each kernel is profiled across the {N, p} grid exactly as the
	// offline trainer would). A zero SimCfg means config.Default().
	SimCfg config.Config
	Sweep  profile.SweepOptions
	// SweepCache is a profile.Store directory for ingest sweeps
	// (empty = no cache, every ingest re-sweeps).
	SweepCache string

	// SampleLog is the durable sample log path (empty = memory-only).
	SampleLog string
	// Retrain tunes the online-adaptation loop.
	Retrain RetrainOptions

	// MaxBody bounds request bodies (decide batches, ingested traces);
	// <= 0 means DefaultMaxBody.
	MaxBody int64
	// Logf receives service log lines (nil = silent).
	Logf func(format string, args ...any)
}

// DefaultMaxBody bounds request bodies: large enough for a gzipped
// multi-kernel trace, small enough that a hostile upload cannot OOM
// the service.
const DefaultMaxBody = 64 << 20

// DecideRequest is one line of a POST /decide body.
type DecideRequest struct {
	// Key memoises the decision table for this workload — by
	// convention a kernel digest or trace-signature digest. Empty
	// skips memoisation.
	Key string `json:"key,omitempty"`
	// X is the Table II feature vector.
	X poise.Vector `json:"x"`
	// MaxN is the scheduler's warp bound; 0 means the service's
	// configured hardware bound.
	MaxN int `json:"maxN,omitempty"`
}

// DecideReply is one line of a /decide response, after its header.
type DecideReply struct {
	N       int   `json:"n"`
	P       int   `json:"p"`
	Version int64 `json:"version"`
	Cached  bool  `json:"cached"`
}

// decideHeader is the first line of a /decide response, fleet-style:
// the count tells the reader how many lines follow.
type decideHeader struct {
	Serve   string `json:"serve"`
	Count   int    `json:"count"`
	Version int64  `json:"version"`
}

// IngestReply answers POST /ingest.
type IngestReply struct {
	// Workload names the ingested trace (from its signature).
	Workload string `json:"workload"`
	// Samples derived from this record; Records and TotalSamples are
	// the log totals after the append.
	Samples      int   `json:"samples"`
	Records      int64 `json:"records"`
	TotalSamples int64 `json:"totalSamples"`
	// WeightsVersion is the active version at reply time — the retrain
	// triggered by this ingest may still be in flight.
	WeightsVersion int64 `json:"weightsVersion"`
}

// Server is the HTTP face of a Decider plus its Retrainer.
type Server struct {
	cfg         Config
	dec         *Decider
	ret         *Retrainer
	hist        histogram
	defaultMaxN int

	// ingested registers the kernels that arrived via /ingest (or were
	// replayed from the sample log), keyed by their memo key, so /table
	// can serve their rows from the memoised Decider state.
	ingMu    sync.Mutex
	ingested map[string]ingestedKernel
}

// ingestedKernel is one /ingest-arrived kernel: the memo key it
// decides under, its feature vector, and the warp bound it trains at.
type ingestedKernel struct {
	name string
	x    poise.Vector
	maxN int
}

// New validates the boot weights and assembles the service, replaying
// any existing sample log before the first request is served.
func New(cfg Config) (*Server, error) {
	if cfg.SimCfg == (config.Config{}) {
		cfg.SimCfg = config.Default()
	}
	if cfg.Params == (config.PoiseParams{}) {
		cfg.Params = config.DefaultPoise()
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = DefaultMaxBody
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Retrain.Logf == nil {
		cfg.Retrain.Logf = cfg.Logf
	}
	dec, err := NewDecider(cfg.Weights)
	if err != nil {
		return nil, err
	}
	ret, err := NewRetrainer(dec, cfg.SampleLog, cfg.Retrain)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg: cfg, dec: dec, ret: ret,
		defaultMaxN: cfg.SimCfg.WarpsPerSched,
		ingested:    make(map[string]ingestedKernel),
	}
	for _, rec := range ret.DrainReplayed() {
		s.registerIngested(rec)
	}
	return s, nil
}

// Decider exposes the in-process decision path (the HTTP layer is for
// remote callers; embedders decide directly).
func (s *Server) Decider() *Decider { return s.dec }

// Flush blocks until every ingest accepted before the call has been
// folded into the model. Test and shutdown hook.
func (s *Server) Flush() { s.ret.Flush() }

// Close drains the retrainer (final retrain, final weights write) and
// closes the sample log.
func (s *Server) Close() error { return s.ret.Close() }

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	decisions, hits, misses := s.dec.Counters()
	records, samples := s.ret.Totals()
	return Stats{
		Decisions:       decisions,
		CacheHits:       hits,
		CacheMisses:     misses,
		IngestedRecords: records,
		TotalSamples:    samples,
		Retrains:        s.ret.Retrains(),
		RetrainErrors:   s.ret.Errors(),
		WeightsVersion:  s.dec.Version(),
		P50LatencyNS:    s.hist.Quantile(0.50),
		P99LatencyNS:    s.hist.Quantile(0.99),
	}
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /decide", s.handleDecide)
	mux.HandleFunc("GET /table", s.handleTable)
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("GET /stats", s.handleStats)
	return mux
}

// handleDecide answers a JSONL batch of decisions: one DecideRequest
// per line in, a count header plus one DecideReply per line out. The
// whole batch parses before the first decision so a malformed line is
// a clean 400, never a half-answered stream.
func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	sc := bufio.NewScanner(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var reqs []DecideRequest
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var req DecideRequest
		if err := json.Unmarshal(line, &req); err != nil {
			http.Error(w, fmt.Sprintf("serve: decide line %d: %v", len(reqs)+1, err), http.StatusBadRequest)
			return
		}
		reqs = append(reqs, req)
	}
	if err := sc.Err(); err != nil {
		http.Error(w, "serve: reading decide body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(reqs) == 0 {
		http.Error(w, "serve: empty decide batch", http.StatusBadRequest)
		return
	}

	version := s.dec.Version()
	replies := make([]DecideReply, len(reqs))
	var hb histBatch // one shared-histogram flush per batch, not per decision
	for i, req := range reqs {
		maxN := req.MaxN
		if maxN == 0 {
			maxN = s.defaultMaxN
		}
		t0 := time.Now()
		n, p, cached := s.dec.Decide(req.Key, req.X, maxN)
		hb.Observe(time.Since(t0).Nanoseconds())
		replies[i] = DecideReply{N: n, P: p, Version: version, Cached: cached}
	}
	hb.FlushTo(&s.hist)

	w.Header().Set("Content-Type", "application/jsonl")
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.Encode(decideHeader{Serve: "decide", Count: len(replies), Version: version})
	for _, rep := range replies {
		enc.Encode(rep)
	}
	bw.Flush()
}

// handleTable serves the policy table. Profile-backed rows come first,
// byte for byte what `poisesim -best` prints for the same profile
// directory (both render profile.BestTable — CI diffs them literally).
// Kernels that arrived via /ingest follow, answered from the memoised
// Decider state: each row is the active model's decision for that
// kernel's feature vector, so the rows track every retrain.
func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	var table string
	if s.cfg.ProfileDir != "" {
		var err error
		table, err = profile.BestTable(s.cfg.ProfileDir, s.cfg.Params)
		if err != nil {
			http.Error(w, "serve: deriving policy table: "+err.Error(), http.StatusInternalServerError)
			return
		}
	}
	rows := s.ingestedRows()
	if table == "" && len(rows) == 0 {
		http.Error(w, "serve: no profile store configured and nothing ingested", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, table)
	for _, row := range rows {
		fmt.Fprintln(w, row)
	}
}

// registerIngested records rec's kernels in the /table registry. The
// memo key is workload-qualified so two workloads' same-named kernels
// memoise separately; a re-ingest of the same kernel refreshes its
// feature vector in place.
func (s *Server) registerIngested(rec Record) {
	s.ingMu.Lock()
	defer s.ingMu.Unlock()
	for _, sm := range rec.Samples {
		maxN := sm.MaxN
		if maxN < 1 || maxN > MaxTableN {
			maxN = s.defaultMaxN
		}
		key := "ingest/" + rec.Signature.Workload + "/" + sm.Kernel
		s.ingested[key] = ingestedKernel{name: sm.Kernel, x: sm.X, maxN: maxN}
	}
}

// ingestedRows renders the /ingest-arrived rows of /table through the
// memoised decision path — the same Decide that answers the HTTP
// endpoint, so the first render populates the model's memo table and
// later /decide calls on these keys hit it. Sorted by rendered form,
// matching BestTableRows' ordering discipline.
func (s *Server) ingestedRows() []string {
	s.ingMu.Lock()
	keys := make([]string, 0, len(s.ingested))
	for key := range s.ingested {
		keys = append(keys, key)
	}
	kernels := make([]ingestedKernel, 0, len(keys))
	for _, key := range keys {
		kernels = append(kernels, s.ingested[key])
	}
	s.ingMu.Unlock()
	version := s.dec.Version()
	rows := make([]string, 0, len(kernels))
	for i, k := range kernels {
		n, p, _ := s.dec.Decide(keys[i], k.x, k.maxN)
		rows = append(rows, fmt.Sprintf("%-14s model (%2d,%2d) weights v%d", k.name, n, p, version))
	}
	sort.Strings(rows)
	return rows
}

// handleIngest accepts either a raw poisetrace container (optionally
// gzipped; detected by content) or a pre-characterised JSON Record.
// Raw traces are piped through the streaming trace reader — the body
// flows straight into flat replay arenas, never buffered whole — then
// characterised and profiled on the spot, the online analogue of the
// offline training pipeline; finally the record is appended to the
// sample log and the background retrainer notified.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	body := bufio.NewReader(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	sniff, _ := body.Peek(len(traceMagic))
	var rec Record
	switch {
	case isPoisetrace(sniff):
		var err error
		rec, err = s.recordFromTrace(body)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, errSweep) {
				status = http.StatusInternalServerError
			}
			http.Error(w, err.Error(), status)
			return
		}
	default:
		data, err := io.ReadAll(body)
		if err != nil {
			http.Error(w, "serve: reading ingest body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if err := json.Unmarshal(data, &rec); err != nil {
			http.Error(w, "serve: ingest body is neither a poisetrace nor a JSON record: "+err.Error(), http.StatusBadRequest)
			return
		}
		if rec.Signature.Workload == "" && len(rec.Samples) == 0 {
			http.Error(w, "serve: ingest record is empty", http.StatusBadRequest)
			return
		}
	}

	records, samples, err := s.ret.Ingest(rec)
	if err != nil {
		http.Error(w, "serve: ingest: "+err.Error(), http.StatusInternalServerError)
		return
	}
	s.registerIngested(rec)
	s.cfg.Logf("serve: ingested %s: %d samples (%d records, %d samples total)",
		rec.Signature.Workload, len(rec.Samples), records, samples)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(IngestReply{
		Workload:       rec.Signature.Workload,
		Samples:        len(rec.Samples),
		Records:        records,
		TotalSamples:   samples,
		WeightsVersion: s.dec.Version(),
	})
}

// errSweep tags ingest failures in the profiling stage (server-side)
// as opposed to trace parsing (client-side).
var errSweep = errors.New("serve: profiling ingested trace")

// recordFromTrace turns a raw trace upload into a Record: stream the
// body into replayable form (characterising in the same pass), then
// profile every kernel through the same admission and scoring pipeline
// the offline trainer uses.
func (s *Server) recordFromTrace(body io.Reader) (Record, error) {
	wl, sig, err := traceio.ReadWorkload(body, &traceio.CharacteriseOptions{})
	if err != nil {
		return Record{}, fmt.Errorf("serve: parsing ingested trace: %w", err)
	}
	store := profile.Store{Dir: s.cfg.SweepCache}
	tag := profile.SweepTag(s.cfg.SimCfg, s.cfg.Sweep)
	ds, err := poise.BuildDataset(s.cfg.SimCfg, s.cfg.Params, []*sim.Workload{wl}, s.cfg.Sweep, store, tag)
	if err != nil {
		return Record{}, fmt.Errorf("%w %s: %v", errSweep, wl.Name, err)
	}
	return Record{Signature: sig, Samples: ds.Samples}, nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}

// traceMagic is the poisetrace container magic, for content sniffing.
const traceMagic = "POISETRACE\n"

// isPoisetrace sniffs the container magic, including through a gzip
// header (mirrors traceio's content detection: poisetrace is the only
// gzipped format the service ingests).
func isPoisetrace(data []byte) bool {
	return bytes.HasPrefix(data, []byte(traceMagic)) ||
		(len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b)
}

// Connection limits of the service's HTTP server: a client that trickles
// its request headers, or parks an idle keep-alive connection, cannot
// hold a connection open forever. Request bodies are bounded
// separately by Config.MaxBody.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Serve runs the service on addr until ctx is cancelled or the
// listener fails, then shuts down gracefully: in-flight requests get
// http.Server.Shutdown's drain window, and the retrainer folds any
// still-pending samples (writing the final weights file) before Serve
// returns. The bound address (useful with ":0") is reported through
// addrCh when non-nil.
func (s *Server) Serve(ctx context.Context, addr string, addrCh chan<- string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if addrCh != nil {
		addrCh <- ln.Addr().String()
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	errCh := make(chan error, 1)
	go func() {
		if serr := srv.Serve(ln); serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			errCh <- serr
		}
	}()
	var serveErr error
	select {
	case <-ctx.Done():
		s.cfg.Logf("serve: shutting down")
	case serveErr = <-errCh:
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	srv.Shutdown(shutdownCtx)
	if cerr := s.Close(); serveErr == nil {
		serveErr = cerr
	}
	return serveErr
}
