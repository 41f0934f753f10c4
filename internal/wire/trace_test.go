package wire_test

import (
	"bytes"
	"errors"
	"testing"

	"qgov/internal/wire"
)

// TestObserveTracedRoundTrip pins the trace extension: a traced frame
// decodes with its id, an untraced one with zero, and the traced frame
// is exactly 8 bytes longer with every other field unchanged.
func TestObserveTracedRoundTrip(t *testing.T) {
	obs := sampleObs()
	const id = uint64(0x0123456789abcdef)
	traced, err := wire.AppendObserveTraced(nil, 7, 0, id, "c0", &obs)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := wire.AppendObserve(nil, 7, "c0", &obs)
	if err != nil {
		t.Fatal(err)
	}
	if len(traced) != len(plain)+8 {
		t.Fatalf("traced frame is %d bytes, plain %d: want exactly +8", len(traced), len(plain))
	}

	_, payload, _, err := wire.DecodeFrame(traced)
	if err != nil {
		t.Fatal(err)
	}
	var m wire.Observe
	if err := m.Decode(payload); err != nil {
		t.Fatal(err)
	}
	if m.TraceID != id || m.Flags&wire.FlagTraced == 0 {
		t.Fatalf("traced decode: trace %#x flags %#x", m.TraceID, m.Flags)
	}
	if m.ID != 7 || string(m.Session) != "c0" || !observationsBitEqual(m.Obs, obs) {
		t.Fatalf("trace extension mangled the observe: %+v", m)
	}

	// Reusing the same struct for an untraced frame must clear TraceID.
	_, payload, _, _ = wire.DecodeFrame(plain)
	if err := m.Decode(payload); err != nil {
		t.Fatal(err)
	}
	if m.TraceID != 0 || m.Flags&wire.FlagTraced != 0 {
		t.Fatalf("untraced decode kept trace state: trace %#x flags %#x", m.TraceID, m.Flags)
	}
}

// TestAppendObserveTracedZero: a zero trace id encodes a plain frame
// even if the caller passed FlagTraced in flags — a traced flag with no
// id behind it would desync every downstream decoder.
func TestAppendObserveTracedZero(t *testing.T) {
	obs := sampleObs()
	frame, err := wire.AppendObserveTraced(nil, 1, wire.FlagTraced|opaqueFlag, 0, "c0", &obs)
	if err != nil {
		t.Fatal(err)
	}
	_, payload, _, err := wire.DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	var m wire.Observe
	if err := m.Decode(payload); err != nil {
		t.Fatal(err)
	}
	if m.Flags != opaqueFlag || m.TraceID != 0 {
		t.Fatalf("zero-trace encode: flags %#x trace %#x", m.Flags, m.TraceID)
	}
}

// TestObserveTraceID pins the O(1) tail read against the full decoder.
func TestObserveTraceID(t *testing.T) {
	obs := sampleObs()
	const id = uint64(0xfeedfacecafebeef)
	traced, err := wire.AppendObserveTraced(nil, 3, 0, id, "sess", &obs)
	if err != nil {
		t.Fatal(err)
	}
	payload := traced[wire.HeaderSize:]
	got, ok := wire.ObserveTraceID(payload)
	if !ok || got != id {
		t.Fatalf("ObserveTraceID = (%#x, %v), want (%#x, true)", got, ok, id)
	}

	plain, err := wire.AppendObserve(nil, 3, "sess", &obs)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := wire.ObserveTraceID(plain[wire.HeaderSize:]); ok || got != 0 {
		t.Fatalf("untraced ObserveTraceID = (%#x, %v)", got, ok)
	}
	if _, ok := wire.ObserveTraceID(nil); ok {
		t.Fatal("ObserveTraceID accepted an empty payload")
	}
}

// TestAppendObserveTrace covers the router's in-flight tagging: set the
// flag and append the id on an untraced payload, overwrite in place on
// an already-traced one, and reject truncated payloads.
func TestAppendObserveTrace(t *testing.T) {
	obs := sampleObs()
	frame, err := wire.AppendObserveBytes(nil, 11, opaqueFlag, []byte("c9"), &obs)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Clone(frame[wire.HeaderSize:])

	tagged, err := wire.AppendObserveTrace(payload, 0xaa55aa55aa55aa55)
	if err != nil {
		t.Fatal(err)
	}
	if len(tagged) != len(payload)+8 {
		t.Fatalf("tagging grew payload by %d bytes, want 8", len(tagged)-len(payload))
	}
	var m wire.Observe
	if err := m.Decode(tagged); err != nil {
		t.Fatal(err)
	}
	if m.TraceID != 0xaa55aa55aa55aa55 || m.Flags != opaqueFlag|wire.FlagTraced {
		t.Fatalf("tagged decode: trace %#x flags %#x", m.TraceID, m.Flags)
	}
	if m.ID != 11 || string(m.Session) != "c9" || !observationsBitEqual(m.Obs, obs) {
		t.Fatal("tagging changed more than flags+tail")
	}

	// Tagging an already-traced payload overwrites in place.
	retagged, err := wire.AppendObserveTrace(tagged, 0x1111222233334444)
	if err != nil {
		t.Fatal(err)
	}
	if len(retagged) != len(tagged) {
		t.Fatalf("re-tagging grew the payload: %d → %d", len(tagged), len(retagged))
	}
	if err := m.Decode(retagged); err != nil {
		t.Fatal(err)
	}
	if m.TraceID != 0x1111222233334444 {
		t.Fatalf("re-tagged trace = %#x", m.TraceID)
	}

	// A zero trace id is a no-op.
	same, err := wire.AppendObserveTrace(bytes.Clone(frame[wire.HeaderSize:]), 0)
	if err != nil || len(same) != len(frame)-wire.HeaderSize {
		t.Fatalf("zero-trace tag: len %d err %v", len(same), err)
	}

	if _, err := wire.AppendObserveTrace([]byte{1, 2, 3}, 5); !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("truncated payload tag: %v", err)
	}
}

// TestTracedSurvivesRelay is the wire-level half of the stitching
// contract: tag a payload, rewrite its id (what the relay does), frame
// it verbatim, and the receiver still reads the same trace id.
func TestTracedSurvivesRelay(t *testing.T) {
	obs := sampleObs()
	frame, err := wire.AppendObserveTraced(nil, 1, 0, 0xdecafbadc0ffee00, "hop", &obs)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Clone(frame[wire.HeaderSize:])
	if err := wire.SetObserveID(payload, 99); err != nil {
		t.Fatal(err)
	}
	relayed, err := wire.AppendFrame(nil, wire.MsgObserve, payload)
	if err != nil {
		t.Fatal(err)
	}
	_, p2, _, err := wire.DecodeFrame(relayed)
	if err != nil {
		t.Fatal(err)
	}
	var m wire.Observe
	if err := m.Decode(p2); err != nil {
		t.Fatal(err)
	}
	if m.ID != 99 || m.TraceID != 0xdecafbadc0ffee00 {
		t.Fatalf("relay lost the trace: id %d trace %#x", m.ID, m.TraceID)
	}
	if id, ok := wire.ObserveTraceID(p2); !ok || id != 0xdecafbadc0ffee00 {
		t.Fatalf("O(1) read after relay: (%#x, %v)", id, ok)
	}
}
