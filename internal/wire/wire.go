// Package wire holds the transport-neutral pieces of the v1 HTTP
// surface that both servers and clients need without importing each
// other: the versioned error envelope every non-2xx /v1/* response
// carries, and its status-to-code mapping. biodeg/api re-exports Error
// as the public api.Error; internal/server renders it; the sweepclient
// example parses it instead of sniffing body text.
package wire

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// ProblemContentType is the media type of every error envelope
// (RFC 9457 problem-details style, JSON member names from this API).
const ProblemContentType = "application/problem+json"

// Stable machine-readable error codes. Clients switch on Code; Message
// and Detail are for humans and may change wording between releases.
const (
	// CodeBadRequest: the request could not be interpreted (malformed
	// JSON, unknown field, invalid bounds, bad query parameter) — 400.
	CodeBadRequest = "bad_request"
	// CodeNotFound: the route or referenced resource does not exist — 404.
	CodeNotFound = "not_found"
	// CodeMethodNotAllowed: the path exists under another HTTP method —
	// 405 (the Allow header lists the supported ones).
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeConfigMismatch: the serving process's checkpoint journal was
	// written under different result-shaping knobs (fault spec, partial
	// mode) than the process now runs with — 409.
	CodeConfigMismatch = "config_mismatch"
	// CodePayloadTooLarge: the request body exceeded the server bound — 413.
	CodePayloadTooLarge = "payload_too_large"
	// CodeOverloaded: shed by the admission semaphore; retry after
	// RetryAfterS — 429.
	CodeOverloaded = "overloaded"
	// CodeInternal: the computation failed — 500.
	CodeInternal = "internal"
	// CodeUnavailable: rejected by the open circuit breaker, or the
	// leading client disconnected — 503; retry after RetryAfterS.
	CodeUnavailable = "unavailable"
	// CodeTimeout: the computation exceeded the request deadline — 504.
	CodeTimeout = "timeout"
)

// Error is the uniform failure envelope: every non-2xx response from a
// /v1/* route (and the health/metrics routes) is one of these, served
// as Content-Type application/problem+json.
type Error struct {
	// Code is the stable machine-readable class (Code* constants).
	Code string `json:"code"`
	// Message is the human-readable summary.
	Message string `json:"message"`
	// RetryAfterS, when nonzero, mirrors the Retry-After header: how
	// many seconds to wait before retrying (429/503).
	RetryAfterS float64 `json:"retry_after_s,omitempty"`
	// Detail carries optional context (offending value, expected digest).
	Detail string `json:"detail,omitempty"`
}

// Error implements the error interface, so parsed envelopes propagate
// as Go errors on the client side.
func (e *Error) Error() string {
	if e.Detail != "" {
		return fmt.Sprintf("%s: %s (%s)", e.Code, e.Message, e.Detail)
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// CodeFor maps an HTTP status to its envelope code.
func CodeFor(status int) string {
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusMethodNotAllowed:
		return CodeMethodNotAllowed
	case http.StatusConflict:
		return CodeConfigMismatch
	case http.StatusRequestEntityTooLarge:
		return CodePayloadTooLarge
	case http.StatusTooManyRequests:
		return CodeOverloaded
	case http.StatusServiceUnavailable:
		return CodeUnavailable
	case http.StatusGatewayTimeout:
		return CodeTimeout
	default:
		return CodeInternal
	}
}

// Parse decodes a non-2xx response body as the envelope. ok is false
// when the body is not an envelope (a proxy's HTML error page, an
// older server) — callers then fall back to the raw body.
func Parse(body []byte) (*Error, bool) {
	var e Error
	if err := json.Unmarshal(body, &e); err != nil || e.Code == "" {
		return nil, false
	}
	return &e, true
}
