package breaker

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestTransitions(t *testing.T) {
	var states []State
	b := New(Options{Threshold: 3, Cooldown: 40 * time.Millisecond,
		OnState: func(s State) { states = append(states, s) }})
	boom := errors.New("engine exploded")

	admit := func(err error) {
		t.Helper()
		if aerr := b.Allow(); aerr != nil {
			t.Fatalf("Allow() = %v, want admit", aerr)
		}
		b.Done(err)
	}

	// Closed: failures below threshold keep admitting; a success resets
	// the streak.
	admit(boom)
	admit(boom)
	admit(nil)
	admit(boom)
	admit(boom)
	if st := b.Status(); st.State != "closed" || st.Failures != 2 {
		t.Fatalf("after reset: %+v, want closed with 2 failures", st)
	}

	// Third consecutive failure trips it open.
	admit(boom)
	if st := b.Status(); st.State != "open" || st.Trips != 1 {
		t.Fatalf("after threshold: %+v, want open with 1 trip", st)
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("open Allow() = %v, want ErrOpen", err)
	}
	if b.Status().FastFails != 1 {
		t.Fatalf("fast-fail not counted: %+v", b.Status())
	}
	if b.RetryAfter() == "" || b.RetryAfter() == "0" {
		t.Fatalf("RetryAfter() = %q", b.RetryAfter())
	}

	// Cooldown elapses: one probe is admitted, a second is not.
	time.Sleep(50 * time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open probe Allow() = %v, want admit", err)
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("second half-open Allow() = %v, want ErrOpen", err)
	}
	if st := b.Status(); st.State != "half-open" {
		t.Fatalf("state = %q, want half-open", st.State)
	}

	// Failing probe re-opens.
	b.Done(boom)
	if st := b.Status(); st.State != "open" || st.Trips != 2 {
		t.Fatalf("after failed probe: %+v, want open with 2 trips", st)
	}

	// Next probe succeeds: closed again, streak cleared.
	time.Sleep(50 * time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatalf("second probe Allow() = %v", err)
	}
	b.Done(nil)
	if st := b.Status(); st.State != "closed" || st.Failures != 0 {
		t.Fatalf("after healed probe: %+v, want closed", st)
	}
	// Every transition reached the observer.
	want := []State{Open, HalfOpen, Open, HalfOpen, Closed}
	if len(states) != len(want) {
		t.Fatalf("observed states %v, want %v", states, want)
	}
	for i, s := range want {
		if states[i] != s {
			t.Fatalf("observed states %v, want %v", states, want)
		}
	}
}

func TestCustomClassifier(t *testing.T) {
	benign := errors.New("expected sentinel")
	b := New(Options{Threshold: 2, Cooldown: time.Minute,
		IsFailure: func(err error) bool { return err != nil && !errors.Is(err, benign) }})
	for i := 0; i < 10; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("Allow() = %v", err)
		}
		b.Done(benign)
	}
	if st := b.Status(); st.State != "closed" || st.Trips != 0 {
		t.Fatalf("benign errors moved the breaker: %+v", st)
	}
	// Unclassified errors do trip.
	b.Done(errors.New("boom"))
	b.Done(errors.New("boom"))
	if st := b.Status(); st.State != "open" {
		t.Fatalf("real failures did not trip: %+v", st)
	}
}

func TestDefaultClassifierIgnoresCanceled(t *testing.T) {
	b := New(Options{Threshold: 1, Cooldown: time.Minute})
	b.Done(context.Canceled)
	if st := b.Status(); st.State != "closed" {
		t.Fatalf("cancellation tripped the default classifier: %+v", st)
	}
	b.Done(context.DeadlineExceeded)
	if st := b.Status(); st.State != "open" {
		t.Fatalf("timeout did not trip: %+v", st)
	}
}

func TestNilBreakerDisabled(t *testing.T) {
	var b *Breaker
	if err := b.Allow(); err != nil {
		t.Fatalf("nil Allow() = %v", err)
	}
	b.Done(errors.New("x"))
	if st := b.Status(); st.Enabled || st.State != "disabled" {
		t.Fatalf("nil Status() = %+v", st)
	}
	if b.RetryAfter() != "1" {
		t.Fatalf("nil RetryAfter() = %q", b.RetryAfter())
	}
}
