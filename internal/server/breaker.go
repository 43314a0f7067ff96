package server

import (
	"context"
	"errors"
	"time"

	"repro/internal/server/breaker"
)

// newEngineBreaker builds the server's engine breaker: engine-class
// failures (isEngineFailure) trip it, and transitions mirror into the
// biodeg_breaker_state gauge. The gauge is process-global like the rest
// of the serving metrics; with several Server instances in one process
// the last transition wins.
func newEngineBreaker(threshold int, cooldown time.Duration) *breaker.Breaker {
	return breaker.New(breaker.Options{
		Threshold: threshold,
		Cooldown:  cooldown,
		IsFailure: isEngineFailure,
		OnState:   func(s breaker.State) { breakerGauge.Set(int64(s)) },
		OnTrip:    func() { breakerTrips.Inc() },
	})
}

// isEngineFailure classifies err for the breaker: engine bugs, injected
// faults, and timeouts count; client mistakes (400/404), config-digest
// conflicts (409), and client disconnects do not.
func isEngineFailure(err error) bool {
	return err != nil &&
		!errors.Is(err, ErrBadRequest) &&
		!errors.Is(err, ErrNotFound) &&
		!errors.Is(err, errConfigMismatch) &&
		!errors.Is(err, context.Canceled)
}
