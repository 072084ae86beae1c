package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/obs"
)

// JournalSchema versions the daemon's durable job journal: an append-only
// JSONL write-ahead log next to the port file. Every line is one event
// carrying this schema tag; the wire format is byte-pinned by a golden
// test (testdata/journal_v1.golden), so any change must be deliberate and,
// if incompatible, versioned to facade.journal/v2.
const JournalSchema = "facade.journal/v1"

// Journal event kinds. A job's durable life is submitted -> started
// (once per attempt) -> done (with its terminal state); a job whose
// journal ends without a done event is non-terminal and is re-enqueued —
// and, because FACADE jobs are deterministic, re-run bit-identically — by
// the next daemon incarnation. drain marks a graceful SIGTERM checkpoint.
const (
	jevSubmitted = "submitted"
	jevStarted   = "started"
	jevDone      = "done"
	jevDrain     = "drain"
)

// journalEvent is one JSONL line. It deliberately carries no timestamps
// or floats: encoding/json renders identical events to identical bytes
// (struct fields in declaration order, map keys sorted), which is what
// makes the golden test and crash/replay diffing possible.
type journalEvent struct {
	Schema  string         `json:"schema"`
	Kind    string         `json:"kind"`
	Seq     int64          `json:"seq,omitempty"`
	JobID   string         `json:"job_id,omitempty"`
	Tenant  string         `json:"tenant,omitempty"`
	Attempt int            `json:"attempt,omitempty"`
	State   string         `json:"state,omitempty"`
	ErrKind string         `json:"error_kind,omitempty"`
	Output  string         `json:"output,omitempty"`
	Error   string         `json:"error,omitempty"`
	Req     *SubmitRequest `json:"req,omitempty"`
}

var errJournalClosed = errors.New("journal closed")

// journal is the append side of the write-ahead log. Appends serialize
// under mu; durability is group-committed — concurrent durable appenders
// share one fsync issued by a background loop, so a submission burst pays
// one disk flush, not one per job. Only durable appends wake the loop; the
// non-durable lines written before a flush ride along with it. A failed
// fsync sticks: the kernel may have dropped the bytes it covered, so no
// later fsync can vouch for them, and every durable append from then on
// fails with it.
type journal struct {
	mu       sync.Mutex
	f        *os.File
	dead     bool
	writeGen int64 // generation of the last buffered write
	syncGen  int64 // generation covered by the last fsync
	syncErr  error // the first failed fsync's error
	synced   *sync.Cond

	wake     chan struct{}
	quit     chan struct{}
	quitOnce sync.Once
	loopDone chan struct{}

	cEvents *obs.Counter
	cSyncs  *obs.Counter

	// onAppend, when set, runs after every append — the daemon-level
	// crash schedule point (faults.ServerCrash / "killat=N").
	onAppend func()
}

// createJournal opens path for appending (creating it if needed) and
// starts the group-commit sync loop.
func createJournal(path string, reg *obs.Registry) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return newJournal(f, reg), nil
}

// newJournal starts the group-commit sync loop over f, open for appending.
func newJournal(f *os.File, reg *obs.Registry) *journal {
	j := &journal{
		f:        f,
		wake:     make(chan struct{}, 1),
		quit:     make(chan struct{}),
		loopDone: make(chan struct{}),
		cEvents:  reg.Counter(obs.CtrServerJournalEvents),
		cSyncs:   reg.Counter(obs.CtrServerJournalSyncs),
	}
	j.synced = sync.NewCond(&j.mu)
	go j.syncLoop()
	return j
}

// append writes one event. With durable set it does not return until an
// fsync covers the write — the submitted path uses this, so an
// acknowledged job is never lost to a crash. Non-durable appends
// (started, done, drain) return immediately and do not wake the sync
// loop: the next durable append's fsync covers them, or seal does. Losing
// one to a crash only means the job is re-run on recovery, which is
// deterministic and therefore harmless. A durable append fails with the
// sync error once an fsync has failed, without writing.
func (j *journal) append(ev journalEvent, durable bool) error {
	ev.Schema = JournalSchema
	line, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	line = append(line, '\n')

	j.mu.Lock()
	if j.dead {
		j.mu.Unlock()
		return errJournalClosed
	}
	if durable && j.syncErr != nil {
		j.mu.Unlock()
		return j.syncErr
	}
	if _, err := j.f.Write(line); err != nil {
		j.mu.Unlock()
		return fmt.Errorf("journal append: %w", err)
	}
	j.writeGen++
	g := j.writeGen
	hook := j.onAppend
	j.mu.Unlock()
	j.cEvents.Add(1)

	if durable {
		select {
		case j.wake <- struct{}{}:
		default:
		}
	}
	if hook != nil {
		hook()
	}
	if !durable {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.syncGen < g && !j.dead && j.syncErr == nil {
		j.synced.Wait()
	}
	switch {
	case j.syncGen >= g:
		return nil
	case j.syncErr != nil:
		return j.syncErr
	default:
		return errJournalClosed
	}
}

// syncLoop is the group-commit flusher: each pass covers every write that
// landed before the fsync, and wakes all appenders waiting on it.
func (j *journal) syncLoop() {
	defer close(j.loopDone)
	for {
		select {
		case <-j.quit:
			return
		case <-j.wake:
		}
		j.mu.Lock()
		if j.dead {
			j.mu.Unlock()
			return
		}
		g := j.writeGen
		if g == j.syncGen {
			j.mu.Unlock()
			continue
		}
		f := j.f
		j.mu.Unlock()

		err := f.Sync() // outside mu: appends batch behind this flush

		j.mu.Lock()
		switch {
		case err != nil && j.syncErr == nil:
			j.syncErr = fmt.Errorf("journal sync: %w", err)
		case err == nil && j.syncErr == nil && g > j.syncGen:
			j.syncGen = g
			j.cSyncs.Add(1)
		}
		j.synced.Broadcast()
		j.mu.Unlock()
	}
}

// seal flushes and closes the journal — the graceful-stop path (drain,
// clean shutdown). Appends after seal are no-ops returning
// errJournalClosed. Idempotent.
func (j *journal) seal() { j.shut(true) }

// kill abandons the journal without a final flush — the in-process
// SIGKILL stand-in for crash-recovery tests. Whatever the last group
// commit covered is what the next incarnation replays.
func (j *journal) kill() { j.shut(false) }

func (j *journal) shut(flush bool) {
	j.mu.Lock()
	if j.dead {
		j.mu.Unlock()
		return
	}
	j.dead = true
	f := j.f
	j.mu.Unlock()
	j.quitOnce.Do(func() { close(j.quit) })
	<-j.loopDone
	j.mu.Lock()
	// The flush covers the non-durable tail no submission's fsync reached,
	// unless an fsync failed, which no later one undoes.
	if flush && j.syncErr == nil && j.syncGen < j.writeGen && f.Sync() == nil {
		j.syncGen = j.writeGen
		j.cSyncs.Add(1)
	}
	j.synced.Broadcast()
	j.mu.Unlock()
	f.Close()
}

// readJournal loads every event from a journal file (decodeJournal); a
// missing file is an empty journal.
func readJournal(path string) ([]journalEvent, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	events, err := decodeJournal(f)
	if err != nil {
		return nil, fmt.Errorf("journal %s: %w", path, err)
	}
	return events, nil
}

// decodeJournal reads journal lines, tolerating a torn final line (the
// signature of a crash mid-append). Lines with the wrong schema fail
// loudly: a journal written by an incompatible daemon must not be
// half-replayed.
func decodeJournal(r io.Reader) ([]journalEvent, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 64<<20)
	var events []journalEvent
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev journalEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			// A crash can only tear the tail; anything after a bad line
			// is untrusted and ignored.
			break
		}
		if ev.Schema != JournalSchema {
			return nil, fmt.Errorf("event speaks %q, daemon wants %q", ev.Schema, JournalSchema)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return events, nil
}

// rewriteJournal atomically replaces the journal with a compacted event
// list (write temp + fsync + rename) — run at startup after replay so
// restarts do not grow the log without bound.
func rewriteJournal(path string, events []journalEvent) (err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close() // harmless after the checked Close below
			os.Remove(tmp)
		}
	}()
	w := bufio.NewWriter(f)
	if err := encodeJournal(w, events); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// encodeJournal writes events as journal lines, stamped with the schema.
func encodeJournal(w io.Writer, events []journalEvent) error {
	for _, ev := range events {
		ev.Schema = JournalSchema
		line, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// replayedJob is one job reconstructed from the journal: terminal jobs
// keep their recorded outcome (still queryable after a restart);
// non-terminal jobs carry the request to re-enqueue.
type replayedJob struct {
	seq    int64
	id     string
	tenant string
	req    SubmitRequest
	result // state "" means non-terminal: re-enqueue and re-run
}

// replayJournal folds an event list into per-job outcomes plus the
// highest sequence number seen (the next incarnation's ID counter floor).
func replayJournal(events []journalEvent) (jobs []*replayedJob, maxSeq int64) {
	byID := make(map[string]*replayedJob)
	for _, ev := range events {
		if ev.Seq > maxSeq {
			maxSeq = ev.Seq
		}
		switch ev.Kind {
		case jevSubmitted:
			if ev.Req == nil || ev.JobID == "" {
				continue
			}
			if _, dup := byID[ev.JobID]; dup {
				continue
			}
			rj := &replayedJob{seq: ev.Seq, id: ev.JobID, tenant: ev.Tenant, req: *ev.Req}
			if err := rj.req.normalize(); err != nil {
				// Submit journals only requests it accepted; one it would
				// refuse is not re-run but restored as failed.
				rj.result = result{state: StateFailed, errKind: ErrKindDeterministic, errMsg: "journal replay: " + err.Error()}
			}
			byID[ev.JobID] = rj
			jobs = append(jobs, rj)
		case jevDone:
			// Only a terminal state ends a job: a done event without one
			// is not one this daemon wrote, and must not re-open the job.
			if rj, ok := byID[ev.JobID]; ok && (ev.State == StateDone || ev.State == StateFailed || ev.State == StateCanceled) {
				rj.result = result{state: ev.State, errKind: ev.ErrKind, output: ev.Output, errMsg: ev.Error}
			}
		}
	}
	return jobs, maxSeq
}

// compactEvents renders the replayed state back to a minimal event list:
// one submitted (plus done, when terminal) per job.
func compactEvents(jobs []*replayedJob) []journalEvent {
	var out []journalEvent
	for _, rj := range jobs {
		req := rj.req
		out = append(out, journalEvent{
			Kind: jevSubmitted, Seq: rj.seq, JobID: rj.id, Tenant: rj.tenant, Req: &req,
		})
		if rj.state != "" {
			out = append(out, journalEvent{
				Kind: jevDone, Seq: rj.seq, JobID: rj.id, Tenant: rj.tenant,
				State: rj.state, ErrKind: rj.errKind, Output: rj.output, Error: rj.errMsg,
			})
		}
	}
	return out
}
