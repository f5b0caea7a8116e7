package fleet

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"poise/internal/gridplan"
	"poise/internal/results"
	"poise/internal/sim"
)

// fuzzSeeds are the hand-written seed bodies; testdata/fuzz/
// FuzzCompletion holds the same kinds as checked-in corpus files.
func fuzzSeeds(t testing.TB) [][]byte {
	m, err := json.Marshal(gridplan.Measurement{Tag: "t", Kernel: "k", N: 8, P: 4, IPC: 1.0 / 3, HitRate: 0.25, Cycles: 42})
	if err != nil {
		t.Fatal(err)
	}
	c, err := json.Marshal(results.CellResult{Tag: "g", Grid: "scheme", Workload: "bfs", Scheme: "Poise", Ord: 3,
		Result: sim.WorkloadResult{Workload: "bfs", Cycles: 7, IPC: 2.0 / 7}, DispN: 0.5, HasDisp: true})
	if err != nil {
		t.Fatal(err)
	}
	body := func(hdr completeHeader, lines ...resultLine) []byte {
		var buf bytes.Buffer
		if err := writeCompletion(&buf, hdr, lines); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	static := completeHeader{Worker: "static-0/1", Plan: "0123456789abcdef"}
	profile := body(static, resultLine{Key: "t|k|0008|0004", Data: m})
	return [][]byte{
		profile,
		body(static, resultLine{Key: "g|scheme|bfs|03|Poise", Data: c}),
		profile[:len(profile)-5], // truncated
		[]byte(`{"worker":"w","gen":0,"lease":"L1","count":-1}` + "\n"),
		[]byte(`{"worker":"w","gen":0,"lease":"L1","count":1099511627776}` + "\n" + `{"key":"k"}` + "\n"),
		body(static, resultLine{Key: "t|k|0008|0004", Data: m}, resultLine{Key: "t|k|0008|0004", Data: m}), // duplicate key
		body(static, resultLine{Key: "not|in|the|plan", Data: m}),                                          // foreign key
		[]byte("\xff\xfe{garbage"),
		{},
	}
}

// FuzzCompletion: the one decoder of task results — served
// completions and static lease files — must never panic; anything it
// accepts must re-encode to a fixed point; and feeding it to a board
// can only ever record the generation's own keys.
func FuzzCompletion(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	units := []unit{{key: "t|k|0008|0004"}, {key: "g|scheme|bfs|03|Poise"}}
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, lines, err := decodeCompletion(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once bytes.Buffer
		if err := writeCompletion(&once, hdr, lines); err != nil {
			t.Fatalf("re-encoding an accepted body: %v", err)
		}
		hdr2, lines2, err := decodeCompletion(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-reading a re-encoded body: %v", err)
		}
		if hdr2 != hdr || len(lines2) != len(lines) {
			t.Fatalf("round trip changed the header or line count: %+v -> %+v", hdr, hdr2)
		}
		for i := range lines {
			if lines2[i].Key != lines[i].Key || lines2[i].Error != lines[i].Error {
				t.Fatalf("line %d changed in the round trip: %+v -> %+v", i, lines[i], lines2[i])
			}
		}
		var twice bytes.Buffer
		if err := writeCompletion(&twice, hdr2, lines2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("re-encoding is not a fixed point")
		}

		stats := &Stats{}
		b := newBoard(units, Options{}.withDefaults(), stats)
		for _, l := range lines {
			b.complete("L1", l.Key, l.Data, b.opts.now())
		}
		for _, r := range b.finish() {
			if !b.has(r.Key) {
				t.Fatalf("board recorded foreign key %s", r.Key)
			}
		}
		if got := len(b.results) + stats.Duplicates + stats.Rejected; got != len(lines) {
			t.Fatalf("%d lines accounted as %d results, %d duplicates, %d rejected",
				len(lines), len(b.results), stats.Duplicates, stats.Rejected)
		}
		if b.done() && !reflect.DeepEqual(b.missing(), []string(nil)) {
			t.Fatal("a done board has missing tasks")
		}
	})
}
