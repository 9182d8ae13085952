// Package completed exercises the completedno analyzer against the real
// giop package: completion statuses must be the named constants, minor
// codes must come from a documented table, and the completion must match
// what the exception name implies on this codebase's paths.
package completed

import (
	"eternalgw/internal/cdr"
	"eternalgw/internal/giop"
)

// minorShed stands in for a documented minor-code table entry.
const minorShed uint32 = 7

func good(order cdr.ByteOrder) []byte {
	return giop.SystemExceptionBody(order, "IDL:omg.org/CORBA/TRANSIENT:1.0", minorShed, giop.CompletedNo)
}

func goodMaybe(order cdr.ByteOrder) []byte {
	return giop.SystemExceptionBody(order, "IDL:eternalgw/NO_AGREEMENT:1.0", minorShed, giop.CompletedMaybe)
}

func bareMinor(order cdr.ByteOrder) []byte {
	return giop.SystemExceptionBody(order, "IDL:omg.org/CORBA/TRANSIENT:1.0", 0, giop.CompletedNo) // want `bare literal minor code`
}

// A conversion does not launder a literal.
func convertedMinor(order cdr.ByteOrder) []byte {
	return giop.SystemExceptionBody(order, "IDL:omg.org/CORBA/TRANSIENT:1.0", uint32(3), giop.CompletedNo) // want `bare literal minor code`
}

func bareCompleted(order cdr.ByteOrder) []byte {
	return giop.SystemExceptionBody(order, "IDL:omg.org/CORBA/TRANSIENT:1.0", minorShed, 1) // want `completed status must be a named giop constant`
}

// A wrong bare status earns both findings: it is a literal, and its
// value contradicts the exception name.
func bareWrongCompleted(order cdr.ByteOrder) []byte {
	return giop.SystemExceptionBody(order, "IDL:omg.org/CORBA/TRANSIENT:1.0", minorShed, 0) // want `completed status must be a named giop constant` `TRANSIENT must be raised with COMPLETED_NO \(got COMPLETED_YES\)`
}

// The PR 4 shed-reply bug, reconstructed: a shed is never dispatched,
// so COMPLETED_YES lies to the client.
func shedYes(order cdr.ByteOrder) []byte {
	return giop.SystemExceptionBody(order, "IDL:omg.org/CORBA/OBJECT_NOT_EXIST:1.0", minorShed, giop.CompletedYes) // want `OBJECT_NOT_EXIST must be raised with COMPLETED_NO \(got COMPLETED_YES\)`
}

// NO_AGREEMENT means the request executed but the outcome is disputed:
// claiming COMPLETED_NO invites an unsafe retry.
func agreementNo(order cdr.ByteOrder) []byte {
	return giop.SystemExceptionBody(order, "IDL:eternalgw/NO_AGREEMENT:1.0", minorShed, giop.CompletedNo) // want `NO_AGREEMENT must be raised with COMPLETED_MAYBE \(got COMPLETED_NO\)`
}

// REPLY_DISCARDED answers a duplicate whose operation ran and whose reply
// is no longer kept: anything but COMPLETED_YES invites a reissue of it.
func discardedYes(order cdr.ByteOrder) []byte {
	return giop.SystemExceptionBody(order, "IDL:eternalgw/REPLY_DISCARDED:1.0", minorShed, giop.CompletedYes)
}

func discardedMaybe(order cdr.ByteOrder) []byte {
	return giop.SystemExceptionBody(order, "IDL:eternalgw/REPLY_DISCARDED:1.0", minorShed, giop.CompletedMaybe) // want `REPLY_DISCARDED must be raised with COMPLETED_YES \(got COMPLETED_MAYBE\)`
}

// A dynamic repository ID proves nothing statically; only the literal
// rules apply.
func dynamic(order cdr.ByteOrder, repoID string, minor uint32) []byte {
	return giop.SystemExceptionBody(order, repoID, minor, giop.CompletedNo)
}

// The escape hatch documents a sanctioned exception to the rule.
func allowed(order cdr.ByteOrder) []byte {
	return giop.SystemExceptionBody(order, "IDL:eternalgw/NO_AGREEMENT:1.0", minorShed, giop.CompletedNo) //lint:allow completedno exercising the thin client's MAYBE handling requires a NO here
}
