package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"poise/internal/gridplan"
	"poise/internal/profile"
	"poise/internal/testutil"
)

// TestCompletionCountIsNotTrusted: the header's count comes from a
// client or a file, so a negative one or one claiming 1<<40 lines must
// be a decode error — never a panic, never an allocation sized from
// it — and the coordinator must answer 400 to either.
func TestCompletionCountIsNotTrusted(t *testing.T) {
	line := `{"key":"k","data":1}` + "\n"
	bodies := map[string]string{
		"negative":             `{"worker":"w","gen":0,"lease":"L1","count":-1}` + "\n",
		"negative with a line": `{"worker":"w","gen":0,"lease":"L1","count":-1}` + "\n" + line,
		"huge":                 `{"worker":"w","gen":0,"lease":"L1","count":1099511627776}` + "\n" + line,
		"too many lines":       `{"worker":"w","gen":0,"lease":"L1","count":1}` + "\n" + line + line,
		"keyless":              `{"worker":"w","gen":0,"lease":"L1","count":1}` + "\n" + `{"data":1}` + "\n",
	}
	plan := profile.BuildPlan("t", testutil.TinyConfig(), testutil.ThrashKernel("count", 20, 12, 4), profile.SweepOptions{StepN: 8, StepP: 8})
	coord, err := NewCoordinator(ProfileCampaign{Plan: plan}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	for name, body := range bodies {
		if _, _, err := decodeCompletion(strings.NewReader(body)); err == nil {
			t.Errorf("%s: decodeCompletion accepted the body", name)
		}
		resp, err := http.Post(srv.URL+"/v1/complete", "application/jsonl", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: /v1/complete answered %s, want 400", name, resp.Status)
		}
	}
	if st := coord.Stats(); st.Duplicates != 0 || st.Rejected != 0 {
		t.Fatalf("refused bodies must not touch the board: %+v", st)
	}
}

// blankLines is a long body of whitespace-only lines, which the JSONL
// decoder skips without allocating; it ends after limit bytes and
// counts what was read.
type blankLines struct{ read, limit int }

func (b *blankLines) Read(p []byte) (int, error) {
	if b.read >= b.limit {
		return 0, io.EOF
	}
	if len(p) > b.limit-b.read {
		p = p[:b.limit-b.read]
	}
	for i := range p {
		if p[i] = ' '; (b.read+i)%(1<<20) == 0 {
			p[i] = '\n'
		}
	}
	b.read += len(p)
	return len(p), nil
}

// TestCompletionBodyIsCapped: /v1/complete reads at most
// maxCompleteBytes of a body, however long the client keeps sending.
func TestCompletionBodyIsCapped(t *testing.T) {
	plan := profile.BuildPlan("t", testutil.TinyConfig(), testutil.ThrashKernel("cap", 20, 12, 4), profile.SweepOptions{StepN: 8, StepP: 8})
	coord, err := NewCoordinator(ProfileCampaign{Plan: plan}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tail := &blankLines{limit: 2 * maxCompleteBytes}
	body := io.MultiReader(strings.NewReader(`{"worker":"w","gen":0,"lease":"L1","count":1}`+"\n"), tail)
	rec := httptest.NewRecorder()
	coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/complete", body))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized body answered %d, want 400", rec.Code)
	}
	if tail.read > maxCompleteBytes+1<<20 {
		t.Fatalf("handler read %d body bytes, cap is %d", tail.read, maxCompleteBytes)
	}
}

// TestCompletionRoundTrip: what writeCompletion writes,
// decodeCompletion reads back unchanged.
func TestCompletionRoundTrip(t *testing.T) {
	m, err := json.Marshal(gridplan.Measurement{Tag: "t", Kernel: "k", N: 8, P: 4, IPC: 1.0 / 3, Cycles: 42})
	if err != nil {
		t.Fatal(err)
	}
	hdr := completeHeader{Worker: "static-0/2", Plan: "abc", Count: 2}
	lines := []resultLine{{Key: "t|k|0008|0004", Data: m}, {Key: "x", Error: "boom"}}
	var buf bytes.Buffer
	if err := writeCompletion(&buf, hdr, lines); err != nil {
		t.Fatal(err)
	}
	gotHdr, got, err := decodeCompletion(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotHdr != hdr || len(got) != 2 || got[0].Key != lines[0].Key || !bytes.Equal(got[0].Data, m) || got[1].Error != "boom" {
		t.Fatalf("round trip changed the body: %+v %+v", gotHdr, got)
	}
}
