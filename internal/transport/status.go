package transport

import "errors"

// Status codes classify handler errors on the wire. A handler that fails
// with (or wrapping) a registered sentinel has that sentinel's code
// appended after the error string in the response frame (wire v4), and the
// caller-side dispatch rehydrates an error that both preserves the remote
// message and unwraps to the sentinel — so errors.Is matches across the
// wire without parsing message text. Code 0 means unclassified; such
// errors surface as plain opaque errors, exactly as before v4.
//
// Like RegisterWireDecoder, registration happens at init time (or under a
// sync.Once) before any traffic flows, so the table needs no locking.
const maxStatusCode = 64

// statusNoEndpoint classifies the serving side's "no endpoint here" reply —
// the host is up but nothing is registered at that address in that group,
// as after a member leaves a host that still serves other groups. It
// rehydrates as ErrUnreachable, which the in-memory network returns for
// the same case.
const statusNoEndpoint = 2

var statusSentinels = [maxStatusCode]error{statusNoEndpoint: ErrUnreachable}

// RegisterStatusError binds a wire status code (1..63) to a sentinel
// error. Re-registering the same pairing is a no-op; rebinding a code to a
// different sentinel panics, as both sides of every connection must agree
// on the numbering forever.
func RegisterStatusError(code uint64, sentinel error) {
	if code == 0 || code >= maxStatusCode {
		panic("transport: status code out of range")
	}
	if sentinel == nil {
		panic("transport: nil status sentinel")
	}
	if prev := statusSentinels[code]; prev != nil && prev != sentinel {
		panic("transport: status code registered twice")
	}
	statusSentinels[code] = sentinel
}

// statusCodeFor maps a handler error to its registered code via errors.Is
// (0 when unclassified).
func statusCodeFor(err error) uint64 {
	for code, s := range statusSentinels {
		if s != nil && errors.Is(err, s) {
			return uint64(code)
		}
	}
	return 0
}

// statusSentinelFor returns the sentinel registered for code (nil when the
// code is 0, out of range, or unknown — e.g. sent by a newer peer).
func statusSentinelFor(code uint64) error {
	if code == 0 || code >= maxStatusCode {
		return nil
	}
	return statusSentinels[code]
}

// statusError is the caller-side rehydration of a classified handler
// error: Error preserves the remote message verbatim, Unwrap exposes the
// registered sentinel so errors.Is sees through it.
type statusError struct {
	msg      string
	sentinel error
}

func (e *statusError) Error() string { return e.msg }
func (e *statusError) Unwrap() error { return e.sentinel }
