package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"poise/internal/gridplan"
)

// The wire protocol is HTTP carrying the same JSONL idiom the plan
// files use: one JSON header line, then one record per line, with
// counts in the header detecting truncated transfers.
//
//	GET  /v1/plan      -> plan envelope line, then the raw plan JSONL
//	POST /v1/lease     <- lease request; -> lease envelope line, then
//	                      one task line per granted task
//	POST /v1/complete  <- completion header line, then one result line
//	                      per finished task; -> completion reply
//
// Workers push each result as soon as its task finishes (streamed
// partials), so the coordinator's progress view is per task: steals
// take only genuinely unstarted work, and a worker killed mid-lease
// loses at most the task it was running.
//
// A static lease file (static.go) is a /v1/complete body on disk, read
// back by the same decoder.

// Lease and completion statuses.
const (
	statusOK   = "ok"   // lease granted / completion accepted
	statusWait = "wait" // nothing grantable now; poll again
	statusGen  = "gen"  // worker's generation is stale; refetch the plan
	statusDone = "done" // campaign complete; worker may exit
	statusErr  = "error"
)

// planEnvelope is the first line of a /v1/plan response; the raw plan
// JSONL (a profile or cell plan, per Format) follows when Done is
// false.
type planEnvelope struct {
	Fleet  string `json:"fleet"` // "plan"
	Gen    int    `json:"gen"`
	Format string `json:"format"`
	Done   bool   `json:"done"`
	Error  string `json:"error,omitempty"`
}

// leaseRequest is a /v1/lease POST body.
type leaseRequest struct {
	Worker string `json:"worker"`
	Gen    int    `json:"gen"`
}

// leaseReply is the first line of a /v1/lease response; Count task
// lines follow on statusOK, aligned with Keys.
type leaseReply struct {
	Fleet      string   `json:"fleet"` // "lease"
	Status     string   `json:"status"`
	Gen        int      `json:"gen"`
	Lease      string   `json:"lease,omitempty"`
	DeadlineMS int64    `json:"deadlineMS,omitempty"`
	Count      int      `json:"count"`
	Keys       []string `json:"keys,omitempty"`
	Error      string   `json:"error,omitempty"`
}

// completeHeader is the first line of a /v1/complete POST body and of
// a static lease file; Count result lines follow. Plan, set by static
// leases, is the content digest of the plan generation the results
// belong to: generation numbers restart in every process, so the merge
// refuses a lease of another plan or refinement round by it.
type completeHeader struct {
	Worker string `json:"worker"`
	Gen    int    `json:"gen"`
	Lease  string `json:"lease"`
	Plan   string `json:"plan,omitempty"`
	Count  int    `json:"count"`
}

// resultLine is one streamed task result. Error marks a task the
// worker could not execute; task failures are deterministic, so one
// fails the campaign.
type resultLine struct {
	Key   string          `json:"key"`
	Data  json.RawMessage `json:"data,omitempty"`
	Error string          `json:"error,omitempty"`
}

// completeReply acknowledges a completion batch. Owned lists the keys
// the lease still holds (grant order); a key the worker meant to run
// next that is absent was stolen and must be skipped. Owned empty —
// including when the lease itself was expired — means the worker
// should request a fresh lease. Rejected lists result keys that are
// not tasks of the current generation; they were dropped.
type completeReply struct {
	Fleet      string   `json:"fleet"` // "complete"
	Status     string   `json:"status"`
	Owned      []string `json:"owned,omitempty"`
	Duplicates int      `json:"duplicates,omitempty"`
	Rejected   []string `json:"rejected,omitempty"`
	Error      string   `json:"error,omitempty"`
}

// maxLineBytes caps one JSONL line of a lease reply or completion
// body (a cell result carries a whole workload's per-kernel results,
// hence the generous bound). It, not any count a peer or file claims,
// bounds what a decoder allocates per line.
const maxLineBytes = 16 << 20

// writeJSONL writes the header followed by one JSON line per record.
func writeJSONL[T any](w io.Writer, header any, lines []T) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header); err != nil {
		return err
	}
	for _, l := range lines {
		if err := enc.Encode(l); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readJSONL decodes a header line into hdr, then every following line
// as a T. count reads the number of lines the decoded header declares;
// the body must hold exactly that many. Nothing is sized from the
// count — a negative or absurd one fails the comparison, never an
// allocation.
func readJSONL[T any](r io.Reader, hdr any, count func() int) ([]T, error) {
	sc := gridplan.NewJSONLScanner(r, maxLineBytes)
	if err := sc.Next(hdr); err != nil {
		return nil, fmt.Errorf("fleet: bad header: %w", err)
	}
	want := count()
	if want < 0 {
		return nil, fmt.Errorf("fleet: header declares %d lines", want)
	}
	var out []T
	for {
		var v T
		err := sc.Next(&v)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("fleet: body line %d: %w", sc.Line(), err)
		}
		if len(out) == want {
			return nil, fmt.Errorf("fleet: body has more than the %d lines its header declares", want)
		}
		out = append(out, v)
	}
	if len(out) != want {
		return nil, fmt.Errorf("fleet: truncated body: %d of %d lines", len(out), want)
	}
	return out, nil
}

// decodeCompletion reads a /v1/complete body — a completeHeader line,
// then one resultLine per finished task. It is the one decoder of task
// results: the coordinator's HTTP handler and the static-lease merge
// both read through it.
func decodeCompletion(r io.Reader) (completeHeader, []resultLine, error) {
	var hdr completeHeader
	lines, err := readJSONL[resultLine](r, &hdr, func() int { return hdr.Count })
	if err != nil {
		return hdr, nil, fmt.Errorf("fleet: completion: %w", err)
	}
	for i, l := range lines {
		if l.Key == "" {
			return hdr, nil, fmt.Errorf("fleet: completion line %d has no key", i+1)
		}
	}
	return hdr, lines, nil
}

// writeCompletion writes a /v1/complete body, stamping the header's
// count.
func writeCompletion(w io.Writer, hdr completeHeader, lines []resultLine) error {
	hdr.Count = len(lines)
	return writeJSONL(w, hdr, lines)
}
