package api_test

import (
	"reflect"
	"testing"

	"repro/biodeg/api"
	"repro/internal/wire"
)

// FuzzParseError covers the public client-facing half of the envelope
// contract: api.ParseError never panics on arbitrary non-2xx bodies
// and stays in lockstep with the transport-level wire.Parse it
// re-exports — a drift between the two would let two clients disagree
// about whether an error is retryable
// (go test -fuzz=FuzzParseError ./biodeg/api).
func FuzzParseError(f *testing.F) {
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"code":"overloaded","message":"shed","retry_after_s":2}`))
	f.Add([]byte(`{"code":"unavailable","message":"breaker open","detail":"cooling down"}`))
	f.Add([]byte(`{"code":"not_found","message":"no such sweep"}`))
	f.Add([]byte(`{"retry_after_s":"not a number","code":"overloaded"}`))
	f.Add([]byte(`<!DOCTYPE html><p>gateway error</p>`))
	f.Add([]byte(`{"code":123}`)) // wrong type for code

	f.Fuzz(func(t *testing.T, body []byte) {
		e, ok := api.ParseError(body) // must never panic
		we, wok := wire.Parse(body)
		if ok != wok {
			t.Fatalf("api.ParseError ok=%v but wire.Parse ok=%v", ok, wok)
		}
		if !ok {
			return
		}
		if !reflect.DeepEqual(e, we) {
			t.Fatalf("api and wire parsed different envelopes:\napi  %+v\nwire %+v", e, we)
		}
		// The parsed envelope is a usable Go error with its stable code
		// visible to callers switching on it.
		if e.Code == "" || e.Error() == "" {
			t.Fatalf("accepted unusable envelope %+v", e)
		}
	})
}
