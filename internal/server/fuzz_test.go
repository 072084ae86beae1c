package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// FuzzSubmitRequest holds the daemon's decoder of a submit body (what
// POST /v1/jobs runs before admission) to its contract on any input: it
// returns an error or a request that is normalized, whose deadline is a
// duration, and that the journal gives back as it was handed — never a
// panic.
func FuzzSubmitRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeSubmit(bytes.NewReader(body))
		if err != nil {
			return
		}
		if err := req.Validate(); err != nil {
			t.Fatalf("accepted request fails Validate: %v", err)
		}
		if req.HeapSize <= 0 || req.Tenant == "" {
			t.Fatalf("accepted request without defaults: heap_size %d, tenant %q", req.HeapSize, req.Tenant)
		}
		if limit := time.Duration(req.DeadlineMillis) * time.Millisecond; limit/time.Millisecond != time.Duration(req.DeadlineMillis) {
			t.Fatalf("deadline_ms %d overflows a duration (%v)", req.DeadlineMillis, limit)
		}
		var buf bytes.Buffer
		if err := encodeJournal(&buf, []journalEvent{{Kind: jevSubmitted, Seq: 1, JobID: "job-000001", Tenant: req.Tenant, Req: &req}}); err != nil {
			t.Fatal(err)
		}
		events, err := decodeJournal(&buf)
		if err != nil || len(events) != 1 || events[0].Req == nil {
			t.Fatalf("journaled request does not read back: %v, %d event(s)", err, len(events))
		}
		// Compared as encoded: an empty list and a missing one are one
		// request.
		if got, want := mustMarshal(t, events[0].Req), mustMarshal(t, req); !bytes.Equal(got, want) {
			t.Fatalf("journal round trip changed the request:\n got  %s\n want %s", got, want)
		}
	})
}

// FuzzJournalReplay feeds arbitrary journal contents through the startup
// replay: decoding returns an error or events; replay re-enqueues only
// requests the daemon would accept at submit; and the compacted journal
// replays to the same jobs — never a panic.
func FuzzJournalReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := decodeJournal(bytes.NewReader(data))
		if err != nil {
			return
		}
		jobs, maxSeq := replayJournal(events)
		for _, rj := range jobs {
			if rj.seq > maxSeq {
				t.Fatalf("job %s seq %d above the ID floor %d", rj.id, rj.seq, maxSeq)
			}
			if rj.state == "" {
				req := rj.req
				if err := req.normalize(); err != nil {
					t.Fatalf("replay re-enqueues job %s, which submit refuses: %v", rj.id, err)
				}
			}
		}
		var buf bytes.Buffer
		if err := encodeJournal(&buf, compactEvents(jobs)); err != nil {
			t.Fatal(err)
		}
		again, err := decodeJournal(&buf)
		if err != nil {
			t.Fatalf("compacted journal does not read back: %v", err)
		}
		if jobs2, _ := replayJournal(again); !reflect.DeepEqual(jobs2, jobs) {
			t.Fatalf("compaction changed the replayed jobs:\n got  %s\n want %s", dumpJobs(jobs2), dumpJobs(jobs))
		}
	})
}

func mustMarshal(t *testing.T, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func dumpJobs(jobs []*replayedJob) string {
	var b strings.Builder
	for _, rj := range jobs {
		fmt.Fprintf(&b, "%+v ", *rj)
	}
	return b.String()
}

// TestServerFuzzSeedsAreCommitted keeps the committed seed corpora of
// FuzzSubmitRequest and FuzzJournalReplay in step with the wire goldens
// they are cut from (every message of job_v1.golden is a submit body; the
// journal golden whole and torn mid-line is a journal); -update rewrites
// them.
func TestServerFuzzSeedsAreCommitted(t *testing.T) {
	jobGolden, err := os.ReadFile(filepath.Join("testdata", "job_v1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	journalGolden, err := os.ReadFile(filepath.Join("testdata", "journal_v1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[string]map[string][]byte{
		"FuzzSubmitRequest": {},
		"FuzzJournalReplay": {
			"golden":      journalGolden,
			"golden-torn": journalGolden[:len(journalGolden)-len(`ain"}`)-1],
		},
	}
	for _, section := range strings.Split(string(jobGolden), "== ")[1:] {
		name, body, _ := strings.Cut(section, " ==\n")
		seeds["FuzzSubmitRequest"]["golden-"+name] = []byte(strings.TrimSpace(body))
	}
	for target, corpus := range seeds {
		dir := filepath.Join("testdata", "fuzz", target)
		if *update {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		for name, b := range corpus {
			want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)
			path := filepath.Join(dir, name)
			if *update {
				if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != want {
				t.Errorf("%s is missing or stale (run with -update to regenerate): %v", path, err)
			}
		}
	}
}
