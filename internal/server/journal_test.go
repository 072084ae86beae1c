package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// fixtureEvents is a fixed journal history: three jobs submitted, one
// done, one failed, one left non-terminal (crashed mid-run), plus a drain
// marker — every event kind and field the format carries.
func fixtureEvents() []journalEvent {
	seed := int64(7)
	req := &SubmitRequest{
		Schema:   Schema,
		Tenant:   "analytics",
		Sources:  map[string]string{"job.fj": "class Main { static void main() { Sys.println(42); } }"},
		HeapSize: 8 << 20,
		RandSeed: &seed,

		DeadlineMillis: 30000,
		MaxAttempts:    3,
	}
	return []journalEvent{
		{Kind: jevSubmitted, Seq: 1, JobID: "job-000001", Tenant: "analytics", Req: req},
		{Kind: jevSubmitted, Seq: 2, JobID: "job-000002", Tenant: "batch", Req: req},
		{Kind: jevSubmitted, Seq: 3, JobID: "job-000003", Tenant: "batch", Req: req},
		{Kind: jevStarted, Seq: 1, JobID: "job-000001", Tenant: "analytics", Attempt: 1},
		{Kind: jevDone, Seq: 1, JobID: "job-000001", Tenant: "analytics", Attempt: 1,
			State: StateDone, Output: "42\n"},
		{Kind: jevStarted, Seq: 2, JobID: "job-000002", Tenant: "batch", Attempt: 2},
		{Kind: jevDone, Seq: 2, JobID: "job-000002", Tenant: "batch", Attempt: 2,
			State: StateFailed, ErrKind: ErrKindTransient, Error: "heap alloc failed (injected fault)"},
		{Kind: jevStarted, Seq: 3, JobID: "job-000003", Tenant: "batch", Attempt: 1},
		{Kind: jevDrain},
	}
}

// TestGoldenJournalSchema byte-pins the facade.journal/v1 on-disk format:
// the fixture history must serialize to the exact checked-in bytes, so
// any field or encoding change is a deliberate, versioned decision — a
// daemon must be able to replay a journal its predecessor wrote.
func TestGoldenJournalSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	jl, err := createJournal(path, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range fixtureEvents() {
		if err := jl.append(ev, false); err != nil {
			t.Fatal(err)
		}
	}
	jl.seal()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "journal_v1.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("facade.journal/v1 encoding changed — if intentional, bump the schema and regenerate with -update.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestJournalRoundTripAndReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	jl, err := createJournal(path, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range fixtureEvents() {
		if err := jl.append(ev, true); err != nil {
			t.Fatal(err)
		}
	}
	jl.seal()
	if err := jl.append(journalEvent{Kind: jevDrain}, false); err != errJournalClosed {
		t.Fatalf("append after seal: %v, want errJournalClosed", err)
	}

	events, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(fixtureEvents()) {
		t.Fatalf("read %d events, wrote %d", len(events), len(fixtureEvents()))
	}
	jobs, maxSeq := replayJournal(events)
	if maxSeq != 3 || len(jobs) != 3 {
		t.Fatalf("replay: %d jobs, maxSeq %d, want 3/3", len(jobs), maxSeq)
	}
	byID := map[string]*replayedJob{}
	for _, j := range jobs {
		byID[j.id] = j
	}
	if j := byID["job-000001"]; j.state != StateDone || j.output != "42\n" {
		t.Fatalf("job 1: state %q output %q", j.state, j.output)
	}
	if j := byID["job-000002"]; j.state != StateFailed || j.errKind != ErrKindTransient {
		t.Fatalf("job 2: state %q kind %q", j.state, j.errKind)
	}
	if j := byID["job-000003"]; j.state != "" {
		t.Fatalf("job 3 should be non-terminal, got %q", j.state)
	}

	// Compaction keeps exactly one submitted (+ done when terminal) per
	// job and replays to the same state.
	compact := compactEvents(jobs)
	if len(compact) != 5 { // 3 submitted + 2 done
		t.Fatalf("compacted to %d events, want 5", len(compact))
	}
	jobs2, maxSeq2 := replayJournal(compact)
	if maxSeq2 != maxSeq || len(jobs2) != len(jobs) {
		t.Fatalf("compacted journal replays differently: %d/%d", len(jobs2), maxSeq2)
	}
}

// TestJournalReplayIgnoresRemovedKeys pins that no decoder on the replay
// path is strict: a facade.journal/v1 record still carrying keys a later
// daemon no longer knows (here the lifetime profile facade.run/v1 dropped:
// lifetime_region_allocs, lifetime_demotions, the lifetimes array; and the
// submit request's tier_low_pages, on the job that replays) is read as a
// whole record, not taken for a torn tail, and replays to the same jobs as
// the journal without them.
func TestJournalReplayIgnoresRemovedKeys(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "journal_v1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	const done = `"state":"done","output":"42\n"}`
	const removed = `"state":"done","output":"42\n","stats":{"analysis":{"lifetime_pretenured":0,` +
		`"lifetime_region_allocs":3,"lifetime_demotions":1},` +
		`"lifetimes":[{"site":1,"class":"epoch-local","allocs":2,"bytes":48}]}}`
	const pending = `"seq":3,"job_id":"job-000003","tenant":"batch","req":{`
	for _, rec := range []string{done, pending} {
		if strings.Count(string(golden), rec) != 1 {
			t.Fatalf("golden journal no longer has exactly one %s record", rec)
		}
	}
	replay := func(content string) []*replayedJob {
		t.Helper()
		path := filepath.Join(t.TempDir(), "j.journal")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		events, err := readJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(events) != len(fixtureEvents()) {
			t.Fatalf("read %d events, want %d", len(events), len(fixtureEvents()))
		}
		jobs, _ := replayJournal(events)
		return jobs
	}
	want := replay(string(golden))
	old := strings.Replace(string(golden), done, removed, 1)
	got := replay(strings.Replace(old, pending, pending+`"tier_low_pages":1,`, 1))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("record with removed keys replays to different jobs (%d vs %d)", len(got), len(want))
	}
}

// TestJournalTornTail is the crash signature: a partial final line (the
// write the crash interrupted) is ignored; everything before it replays.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	jl, err := createJournal(path, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	evs := fixtureEvents()
	for _, ev := range evs[:3] {
		if err := jl.append(ev, true); err != nil {
			t.Fatal(err)
		}
	}
	jl.kill()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, `{"schema":"facade.journal/v1","kind":"done","seq":2,"jo`)
	f.Close()

	events, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("torn journal yielded %d events, want 3", len(events))
	}
	jobs, _ := replayJournal(events)
	for _, j := range jobs {
		if j.state != "" {
			t.Fatalf("job %s terminal after torn tail: %q", j.id, j.state)
		}
	}
}

func TestJournalRejectsForeignSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	if err := os.WriteFile(path, []byte(`{"schema":"facade.journal/v9","kind":"submitted"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readJournal(path); err == nil || !strings.Contains(err.Error(), "facade.journal/v9") {
		t.Fatalf("foreign schema accepted: %v", err)
	}
}

// TestJournalGroupCommit drives many concurrent durable appends and
// checks they all land while the fsync count stays below the event count
// — the group-commit batching working as designed.
func TestJournalGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	reg := obs.NewRegistry()
	jl, err := createJournal(path, reg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = jl.append(journalEvent{
				Kind: jevSubmitted, Seq: int64(i + 1), JobID: fmt.Sprintf("job-%06d", i+1),
				Req: &SubmitRequest{Schema: Schema, Sources: map[string]string{"a.fj": "x"}},
			}, true)
		}(i)
	}
	wg.Wait()
	jl.seal()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	events, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != n {
		t.Fatalf("journal holds %d events, want %d", len(events), n)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[obs.CtrServerJournalEvents]; got != n {
		t.Fatalf("journal_events = %d, want %d", got, n)
	}
	if syncs := snap.Counters[obs.CtrServerJournalSyncs]; syncs < 1 || syncs > n {
		t.Fatalf("journal_syncs = %d, want within [1,%d]", syncs, n)
	}
}

// TestNonDurableAppendsRideTheNextCommit: started/done lines do not wake
// the sync loop. The next submission's fsync covers them, and seal covers
// whatever no submission followed.
func TestNonDurableAppendsRideTheNextCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	reg := obs.NewRegistry()
	jl, err := createJournal(path, reg)
	if err != nil {
		t.Fatal(err)
	}
	syncs := func() int64 { return reg.Snapshot().Counters[obs.CtrServerJournalSyncs] }
	covered := func() bool {
		jl.mu.Lock()
		defer jl.mu.Unlock()
		return jl.syncGen == jl.writeGen
	}
	done := func(seq int64) {
		t.Helper()
		if err := jl.append(journalEvent{Kind: jevDone, Seq: seq, JobID: fmt.Sprintf("job-%06d", seq), State: StateDone}, false); err != nil {
			t.Fatal(err)
		}
	}
	// idle gives a woken sync loop time to flush: a wrongly woken loop
	// shows up as a count that moved, a correct one never moves.
	idle := func() { time.Sleep(50 * time.Millisecond) }
	const n = 8
	for i := int64(1); i <= n; i++ {
		done(i)
	}
	idle()
	if got := syncs(); got != 0 {
		t.Fatalf("%d non-durable appends issued %d fsyncs, want 0", n, got)
	}
	if err := jl.append(journalEvent{
		Kind: jevSubmitted, Seq: n + 1, JobID: "job-000009",
		Req: &SubmitRequest{Schema: Schema, Sources: map[string]string{"a.fj": "x"}},
	}, true); err != nil {
		t.Fatal(err)
	}
	if got := syncs(); got != 1 {
		t.Fatalf("one submission issued %d fsyncs, want 1", got)
	}
	if !covered() {
		t.Fatal("the submission's fsync left earlier lines uncovered")
	}
	done(n + 1)
	idle()
	if covered() || syncs() != 1 {
		t.Fatal("a done append after the commit was flushed on its own")
	}
	jl.seal()
	if !covered() || syncs() != 2 {
		t.Fatalf("seal left the tail uncovered (journal_syncs = %d, want 2)", syncs())
	}
	events, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != n+2 {
		t.Fatalf("journal holds %d events, want %d", len(events), n+2)
	}
}

// TestFailedSyncFailsDurableAppends journals to a pipe, whose fsync fails:
// the durable append that fsync covered returns the error instead of
// waiting for a commit that never comes, every later durable append fails
// with it, and a submission over the journal is answered 503 and left
// neither queued nor running.
func TestFailedSyncFailsDurableAppends(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	go io.Copy(io.Discard, r)
	t.Cleanup(func() { r.Close() })
	cfg := Config{}
	s := newServer(cfg.withDefaults())
	s.journal = newJournal(w, s.reg)
	defer s.journal.seal()
	// within runs f and fails the test if it is still waiting after 5 s.
	within := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			f()
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s still waiting for its fsync after 5 s", what)
		}
	}
	req := SubmitRequest{Schema: Schema, Sources: map[string]string{"a.fj": "x"}}
	for i := int64(1); i <= 2; i++ {
		var err error
		within(fmt.Sprintf("durable append %d", i), func() {
			err = s.journal.append(journalEvent{Kind: jevSubmitted, Seq: i, JobID: fmt.Sprintf("job-%06d", i), Req: &req}, true)
		})
		if err == nil || !strings.Contains(err.Error(), "journal sync") {
			t.Fatalf("durable append %d over a failed fsync: %v, want the sync error", i, err)
		}
	}
	if err := req.normalize(); err != nil {
		t.Fatal(err)
	}
	var j *job
	var ref *refusal
	within("submit", func() { j, ref = s.submit(req) })
	if j != nil || ref == nil || ref.code != http.StatusServiceUnavailable || !strings.HasPrefix(ref.msg, "journal write failed") {
		t.Fatalf("submit over a failed journal: job %v, refusal %+v; want 503 journal write failed", j, ref)
	}
	s.mu.Lock()
	depth := s.runq.depth()
	s.mu.Unlock()
	if depth != 0 {
		t.Fatalf("the refused job left the run queue %d deep", depth)
	}
}
