package wire_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"qgov/internal/wire"
)

// TestObserveMeta pins the zero-copy relay metadata against the full
// decoder on a representative frame, and its rejection of truncated or
// bound-violating prefixes.
func TestObserveMeta(t *testing.T) {
	obs := sampleObs()
	frame, err := wire.AppendObserveBytes(nil, 42, opaqueFlag, []byte("cluster-7"), &obs)
	if err != nil {
		t.Fatal(err)
	}
	_, payload, _, err := wire.DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}

	id, flags, sess, err := wire.ObserveMeta(payload)
	if err != nil {
		t.Fatal(err)
	}
	if id != 42 || flags != opaqueFlag || string(sess) != "cluster-7" {
		t.Fatalf("ObserveMeta = (%d, %#x, %q), want (42, 0x01, cluster-7)", id, flags, sess)
	}

	// Truncation anywhere inside the fixed prefix or the session bytes
	// must fail with ErrTruncated, never panic or misread.
	for cut := 0; cut < len(payload) && cut < 58+len("cluster-7"); cut++ {
		if _, _, _, err := wire.ObserveMeta(payload[:cut]); !errors.Is(err, wire.ErrTruncated) {
			t.Fatalf("ObserveMeta on %d-byte prefix: err %v, want ErrTruncated", cut, err)
		}
	}

	// A forged session length beyond MaxSession must be rejected before
	// any slicing happens.
	forged := bytes.Clone(payload)
	forged[57] = wire.MaxSession + 1
	if _, _, _, err := wire.ObserveMeta(forged); err == nil || !strings.Contains(err.Error(), "session id") {
		t.Fatalf("ObserveMeta accepted a forged session length: %v", err)
	}
}

// TestSetObserveID: the relay's per-request id rewrite must be exact
// and in place.
func TestSetObserveID(t *testing.T) {
	obs := sampleObs()
	frame, err := wire.AppendObserve(nil, 7, "s0", &obs)
	if err != nil {
		t.Fatal(err)
	}
	payload := frame[wire.HeaderSize:]
	if err := wire.SetObserveID(payload, 0xabcdef01); err != nil {
		t.Fatal(err)
	}
	var m wire.Observe
	if err := m.Decode(payload); err != nil {
		t.Fatal(err)
	}
	if m.ID != 0xabcdef01 || string(m.Session) != "s0" || !observationsBitEqual(m.Obs, obs) {
		t.Fatalf("rewrite mangled the frame: %+v", m)
	}
	if err := wire.SetObserveID(payload[:3], 1); !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("SetObserveID on a 3-byte payload: err %v, want ErrTruncated", err)
	}
}

// TestAppendFrame: framing a payload verbatim must reproduce a frame
// the decoder accepts unchanged, and payloads over the wire bound must
// be rejected.
func TestAppendFrame(t *testing.T) {
	payload := []byte("not even a real payload; framing is payload-agnostic")
	frame, err := wire.AppendFrame(nil, wire.MsgObserve, payload)
	if err != nil {
		t.Fatal(err)
	}
	typ, got, rest, err := wire.DecodeFrame(frame)
	if err != nil || typ != wire.MsgObserve || len(rest) != 0 || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: typ %d rest %d err %v", typ, len(rest), err)
	}

	if _, err := wire.AppendFrame(nil, wire.MsgObserve, make([]byte, wire.MaxPayload+1)); !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("oversize payload: err %v, want ErrFrameTooLarge", err)
	}

	// Appending to an existing buffer must leave the prefix intact.
	prefix := []byte{1, 2, 3}
	out, err := wire.AppendFrame(bytes.Clone(prefix), wire.MsgDecide, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[:3], prefix) {
		t.Fatal("AppendFrame clobbered the destination prefix")
	}
	typ, got, rest, err = wire.DecodeFrame(out[3:])
	if err != nil || typ != wire.MsgDecide || len(rest) != 0 || !bytes.Equal(got, payload) {
		t.Fatalf("appended frame: typ %d rest %d err %v", typ, len(rest), err)
	}
}
