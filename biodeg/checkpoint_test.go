package biodeg

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/runner"
)

func TestWithCheckpointBindsJournal(t *testing.T) {
	dir := t.TempDir()
	s := New(WithCheckpoint(dir))
	ctx, err := s.bind(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cp := runner.CheckpointFrom(ctx)
	if cp == nil {
		t.Fatal("bound context carries no checkpoint")
	}
	if got := config.Get(ctx).Checkpoint; got != dir {
		t.Errorf("bound config Checkpoint = %q, want %q", got, dir)
	}

	// Work journaled under this session is visible to a later session
	// on the same directory — the crash-resume path.
	if _, err := runner.Checkpointed(ctx, "unit/k", func(context.Context) (int, error) { return 5, nil }); err != nil {
		t.Fatal(err)
	}
	if st := s.CheckpointStats(); st.Committed != 1 {
		t.Errorf("CheckpointStats = %+v, want 1 committed", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := New(WithCheckpoint(dir))
	defer s2.Close()
	ctx2, err := s2.bind(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	v, err := runner.Checkpointed(ctx2, "unit/k", func(context.Context) (int, error) {
		return 0, errors.New("must replay, not recompute")
	})
	if err != nil || v != 5 {
		t.Fatalf("resumed Checkpointed = %v, %v; want 5 replayed", v, err)
	}
	if st := s2.CheckpointStats(); st.Replayed != 1 || st.Records != 1 {
		t.Errorf("resumed CheckpointStats = %+v", st)
	}
}

// TestWithCheckpointRejectsChangedKnobs proves a journal directory
// written under one result-shaping posture cannot be silently resumed
// under another.
func TestWithCheckpointRejectsChangedKnobs(t *testing.T) {
	dir := t.TempDir()
	s := New(WithCheckpoint(dir))
	if _, err := s.bind(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Close()

	spec, err := ParseFaults("seed=1,rate=0.5")
	if err != nil {
		t.Fatal(err)
	}
	chaotic := New(WithCheckpoint(dir), WithFaults(spec))
	defer chaotic.Close()
	_, err = chaotic.bind(context.Background())
	if !errors.Is(err, checkpoint.ErrConfigMismatch) {
		t.Fatalf("bind with changed fault posture = %v, want ErrConfigMismatch", err)
	}
	// And the public surface reports it, not just bind.
	if _, err := chaotic.Widths(context.Background(), Organic()); !errors.Is(err, checkpoint.ErrConfigMismatch) {
		t.Fatalf("Widths over a mismatched journal = %v, want ErrConfigMismatch", err)
	}
}

// TestSessionJournalYieldsToContextCheckpoint checks the precedence the
// daemon's job store relies on: a checkpoint already on the context (a
// per-job journal) wins over the session's own.
func TestSessionJournalYieldsToContextCheckpoint(t *testing.T) {
	s := New(WithCheckpoint(t.TempDir()))
	defer s.Close()
	jobDir := t.TempDir()
	jobJournal, _, err := checkpoint.Open(context.Background(),
		filepath.Join(jobDir, "journal.bdj"), checkpoint.Meta{Tool: "test", Label: "job"})
	if err != nil {
		t.Fatal(err)
	}
	defer jobJournal.Close()

	ctx := runner.WithCheckpoint(context.Background(), jobJournal)
	bound, err := s.bind(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := runner.CheckpointFrom(bound); got != runner.Checkpoint(jobJournal) {
		t.Fatal("session journal must not shadow a context-attached checkpoint")
	}
	// The session never even opened its own journal.
	if st := s.CheckpointStats(); st != (checkpoint.Stats{}) {
		t.Errorf("session journal opened needlessly: %+v", st)
	}
}

func TestSessionWithoutCheckpointNeedsNoClose(t *testing.T) {
	s := New()
	ctx, err := s.bind(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if runner.CheckpointFrom(ctx) != nil {
		t.Error("checkpoint attached without WithCheckpoint")
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close on an unjournaled session: %v", err)
	}
	if st := s.CheckpointStats(); st != (checkpoint.Stats{}) {
		t.Errorf("CheckpointStats = %+v, want zero", st)
	}
}

// TestJournalDigestPinned pins the session journal's config digest. A
// journal header stores it, so any change to the digest's keys or
// encoding would make every journal already on disk fail to reopen.
func TestJournalDigestPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  config.Config
		want string
	}{
		{"zero", config.Config{}, "3713031193a15100"},
		{"partial", config.Config{PartialResults: true}, "c91b3d9369fa9058"},
	} {
		if got := journalDigest(tc.cfg); got != tc.want {
			t.Errorf("%s config: journalDigest = %s, want %s", tc.name, got, tc.want)
		}
	}

	// The session writes that digest into its journal header: a journal
	// opened with the pinned header resumes what the session wrote.
	dir := t.TempDir()
	s := New(WithCheckpoint(dir))
	if _, err := s.bind(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	meta := checkpoint.Meta{Tool: "biodeg", Label: "session", ConfigDigest: "3713031193a15100"}
	j, _, err := checkpoint.Open(context.Background(), filepath.Join(dir, "journal.bdj"), meta)
	if err != nil {
		t.Fatalf("reopening the session journal under the pinned digest: %v", err)
	}
	j.Close()
}
