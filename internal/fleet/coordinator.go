package fleet

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"
)

// Limits of the coordinator's HTTP server: a completion body larger
// than maxCompleteBytes is refused (workers stream one chunk of
// results per request, far below it), and slow or idle clients cannot
// pin connections forever.
const (
	maxCompleteBytes  = 64 << 20
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Coordinator serves a Campaign to workers: it publishes the current
// plan generation, grants leases, accepts streamed completions, and
// advances to the next generation when the current one's results are
// complete. All state mutates under one mutex; handlers do no
// simulation, so the lock is never held across anything slow.
type Coordinator struct {
	opts Options
	camp Campaign

	mu       sync.Mutex
	gen      int
	planData []byte
	plan     string // content digest of planData, "" once done
	board    *board
	stats    Stats
	results  []Result // accumulated across generations, key order per gen
	done     bool
	err      error
	finished chan struct{}
}

// NewCoordinator starts a campaign: the first generation is built
// eagerly, so plan errors surface here rather than on a worker's
// first request.
func NewCoordinator(camp Campaign, opts Options) (*Coordinator, error) {
	c := &Coordinator{
		opts:     opts.withDefaults(),
		camp:     camp,
		gen:      -1,
		finished: make(chan struct{}),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.advanceLocked(nil); err != nil {
		return nil, err
	}
	return c, nil
}

// advanceLocked asks the campaign for the next generation, skipping
// any empty ones, and marks the campaign finished when it is done.
// Called with c.mu held.
func (c *Coordinator) advanceLocked(prev []Result) error {
	for {
		c.gen++
		planData, units, done, err := c.camp.Next(c.gen, prev)
		if err != nil {
			return err
		}
		if done {
			c.done = true
			c.board = nil
			c.plan = ""
			c.opts.Logf("fleet: campaign complete: %s", c.statsLineLocked())
			close(c.finished)
			return nil
		}
		if len(units) > 0 {
			c.planData = planData
			c.plan = planDigest(planData)
			c.board = newBoard(units, c.opts, &c.stats)
			c.stats.Generations++
			c.stats.Tasks += len(units)
			c.opts.Logf("fleet: generation %d: %d tasks", c.gen, len(units))
			return nil
		}
		prev = nil // an empty generation contributes no results
	}
}

func (c *Coordinator) statsLineLocked() string {
	return fmt.Sprintf("%d tasks over %d generations; leases granted %d, expired %d, stolen batches %d (%d tasks), duplicate results %d, rejected results %d",
		c.stats.Tasks, c.stats.Generations, c.stats.Granted, c.stats.Expired,
		c.stats.StolenBatches, c.stats.StolenTasks, c.stats.Duplicates, c.stats.Rejected)
}

// Stats returns a snapshot of the scheduling counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Wait blocks until the campaign completes (or ctx is cancelled) and
// returns every accepted result in per-generation key order.
func (c *Coordinator) Wait(ctx context.Context) ([]Result, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.finished:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, c.err
	}
	return c.results, nil
}

// failLocked aborts the campaign. Called with c.mu held.
func (c *Coordinator) failLocked(err error) {
	if c.done {
		return
	}
	c.done = true
	c.err = err
	c.board = nil
	c.opts.Logf("fleet: campaign failed: %v", err)
	close(c.finished)
}

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/plan", c.handlePlan)
	mux.HandleFunc("POST /v1/lease", c.handleLease)
	mux.HandleFunc("POST /v1/complete", c.handleComplete)
	return mux
}

func (c *Coordinator) handlePlan(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	env := planEnvelope{Fleet: "plan", Gen: c.gen, Format: c.camp.Format(), Done: c.done}
	if c.err != nil {
		env.Error = c.err.Error()
	}
	planData := c.planData
	c.mu.Unlock()

	w.Header().Set("Content-Type", "application/jsonl")
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(env); err != nil {
		return
	}
	if !env.Done {
		if _, err := bw.Write(planData); err != nil {
			return
		}
	}
	bw.Flush()
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "fleet: bad lease request: "+err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	rep := leaseReply{Fleet: "lease", Gen: c.gen}
	var lines []json.RawMessage
	switch {
	case c.err != nil:
		rep.Status, rep.Error = statusErr, c.err.Error()
	case c.done:
		rep.Status = statusDone
	case req.Gen != c.gen:
		rep.Status = statusGen
	default:
		l, live := c.board.grant(req.Worker, c.opts.now())
		switch {
		case l != nil:
			rep.Status, rep.Lease = statusOK, l.id
			rep.DeadlineMS = time.Until(l.deadline).Milliseconds()
			rep.Count = len(l.pending)
			for _, u := range l.pending {
				rep.Keys = append(rep.Keys, u.key)
				lines = append(lines, u.line)
			}
		case !live:
			// Every task of the generation is done but the campaign has
			// not advanced yet (the final completion's handler does
			// that); tell the worker to poll.
			rep.Status = statusWait
		default:
			rep.Status = statusWait
		}
	}
	c.mu.Unlock()

	w.Header().Set("Content-Type", "application/jsonl")
	writeJSONL(w, rep, lines)
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	hdr, lines, err := decodeCompletion(http.MaxBytesReader(w, r.Body, maxCompleteBytes))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rep := c.complete(hdr, lines)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rep)
}

// complete applies one decoded completion batch — a served worker's
// POST or the lines of static lease files — to the current
// generation, and advances the campaign when the batch finishes it.
func (c *Coordinator) complete(hdr completeHeader, lines []resultLine) completeReply {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := completeReply{Fleet: "complete"}
	switch {
	case c.err != nil:
		rep.Status, rep.Error = statusErr, c.err.Error()
		return rep
	case c.done:
		rep.Status = statusDone
		return rep
	case hdr.Gen != c.gen:
		rep.Status = statusGen
		return rep
	}
	rep.Status = statusOK
	now := c.opts.now()
	for _, l := range lines {
		if l.Error != "" {
			// Task failures are deterministic (digest mismatches,
			// invalid tasks): retrying elsewhere cannot succeed, so
			// fail the campaign fast.
			c.failLocked(fmt.Errorf("fleet: task %s failed on worker %s: %s", l.Key, hdr.Worker, l.Error))
			rep.Status, rep.Error = statusErr, c.err.Error()
			return rep
		}
		before := c.stats.Duplicates
		if !c.board.complete(hdr.Lease, l.Key, l.Data, now) {
			rep.Rejected = append(rep.Rejected, l.Key)
		}
		rep.Duplicates += c.stats.Duplicates - before
	}
	rep.Owned, _ = c.board.owned(hdr.Lease)
	if c.board.done() {
		genResults := c.board.finish()
		c.results = append(c.results, genResults...)
		if err := c.advanceLocked(genResults); err != nil {
			c.failLocked(err)
			rep.Status, rep.Error = statusErr, c.err.Error()
		}
	}
	return rep
}

// Serve runs the coordinator's HTTP server on ln-style addr until the
// campaign completes or ctx is cancelled, lingers Options.Linger so
// polling workers observe the final status, then shuts the server
// down and returns the results. The bound address (useful with ":0")
// is reported through addrCh when non-nil.
func (c *Coordinator) Serve(ctx context.Context, addr string, addrCh chan<- string) ([]Result, error) {
	srv := &http.Server{Addr: addr, Handler: c.Handler(),
		ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	errCh := make(chan error, 1)
	ln, err := listen(addr)
	if err != nil {
		return nil, err
	}
	if addrCh != nil {
		addrCh <- ln.Addr().String()
	}
	go func() {
		if serr := srv.Serve(ln); serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			errCh <- serr
		}
	}()
	var res []Result
	var werr error
	select {
	case wr := <-waitCh(ctx, c):
		res, werr = wr.res, wr.err
		// Linger before shutting down so workers mid-poll get one more
		// reply — the done (or failed) status — and exit cleanly
		// instead of dialing a closed port. Skipped on cancellation.
		select {
		case <-ctx.Done():
		case <-time.After(c.opts.Linger):
		}
	case werr = <-errCh:
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	srv.Shutdown(shutdownCtx)
	return res, werr
}

// listen binds the coordinator's TCP listener.
func listen(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }

// waitCh adapts Wait to a channel for Serve's select.
func waitCh(ctx context.Context, c *Coordinator) <-chan waitResult {
	ch := make(chan waitResult, 1)
	go func() {
		res, err := c.Wait(ctx)
		ch <- waitResult{res, err}
	}()
	return ch
}

type waitResult struct {
	res []Result
	err error
}
