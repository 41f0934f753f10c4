package wire_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"qgov/internal/governor"
	"qgov/internal/wire"
)

// corruptions of a valid frame used as seeds alongside the checked-in
// corpus under testdata/fuzz.
func frameSeeds(f *testing.F) {
	f.Helper()
	obs := sampleObs()
	frame, err := wire.AppendObserve(nil, 1, "c0", &obs)
	if err != nil {
		f.Fatal(err)
	}
	dec, err := wire.AppendDecide(nil, 2, 5, 10, 1800, "boom")
	if err != nil {
		f.Fatal(err)
	}
	ctrl, err := wire.AppendControl(nil, 3, wire.OpCreate, "c0", []byte(`{"governor":"rtm","seed":1}`))
	if err != nil {
		f.Fatal(err)
	}
	// An observe carrying an opaque flag bit, and an op no server
	// implements, framed bare and with a JSON body.
	fwd, err := wire.AppendObserveBytes(nil, 5, opaqueFlag, []byte("c1"), &obs)
	if err != nil {
		f.Fatal(err)
	}
	bareOp, err := wire.AppendControl(nil, 6, unassignedOp, "", nil)
	if err != nil {
		f.Fatal(err)
	}
	bodyOp, err := wire.AppendControl(nil, 7, unassignedOp, "",
		[]byte(`{"epoch":3,"vnodes":128,"members":["127.0.0.1:7101","127.0.0.1:7102"],"self":"127.0.0.1:7101"}`))
	if err != nil {
		f.Fatal(err)
	}
	// A create body carrying the registry/cap fields (warm_start,
	// workload, thermal_cap_mw) — the newest control-plane schema.
	warm, err := wire.AppendControl(nil, 4, wire.OpCreate, "w0",
		[]byte(`{"governor":"rtm","workload":"mpeg4-30fps","warm_start":"auto","thermal_cap_mw":1500}`))
	if err != nil {
		f.Fatal(err)
	}
	reply, err := wire.AppendControlReply(nil, 3, 201, []byte(`{"id":"c0"}`))
	if err != nil {
		f.Fatal(err)
	}
	// Relay-path shapes: a maximum-length session id (the ObserveMeta
	// bound) and a flags byte with every bit set.
	longSess, err := wire.AppendObserveBytes(nil, 8, 0xff, bytes.Repeat([]byte("s"), wire.MaxSession), &obs)
	if err != nil {
		f.Fatal(err)
	}
	// A traced observe (trailing 8-byte trace id behind FlagTraced) and
	// the same frame with its tail cut off — the decoder must reject the
	// flagged-but-idless shape, not read past the end.
	traced, err := wire.AppendObserveTraced(nil, 9, opaqueFlag, 0xfeedfacecafebeef, []byte("c2"), &obs)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(traced)
	f.Add(traced[:len(traced)-8])
	f.Add(frame)
	f.Add(dec)
	f.Add(ctrl)
	f.Add(longSess)
	f.Add(longSess[:wire.HeaderSize+58]) // observe cut right at the session bytes
	f.Add(warm)
	f.Add(reply)
	f.Add(fwd)
	f.Add(bareOp)
	f.Add(bodyOp)
	f.Add(append(bytes.Clone(fwd), bodyOp...))
	f.Add(ctrl[:len(ctrl)-5]) // control cut mid-body
	lying := bytes.Clone(ctrl)
	lying[len(lying)-len(`{"governor":"rtm","seed":1}`)-1] = 0xff // forge the body length
	f.Add(lying)
	f.Add(append(bytes.Clone(frame), dec...)) // two frames back to back
	f.Add(frame[:wire.HeaderSize])            // header only
	f.Add(frame[:len(frame)-3])               // cut mid-payload
	flipped := bytes.Clone(frame)
	flipped[9] ^= 0x80
	f.Add(flipped)
	huge := bytes.Clone(frame)
	binary.BigEndian.PutUint32(huge[4:], wire.MaxPayload+1)
	f.Add(huge)
	f.Add([]byte{})
	f.Add([]byte{0x51, 0x47}) // magic alone
}

// FuzzDecodeFrame feeds arbitrary bytes through the stream reader and
// message decoders. Whatever the input — truncated, oversized, or
// bit-flipped — decoding must return an error or a value, never panic,
// hang, or allocate beyond the frame bound; decoded messages are reused
// across frames exactly as the server does.
func FuzzDecodeFrame(f *testing.F) {
	frameSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		// The slice-based splitter and the stream reader must agree on the
		// first frame: both accept or both reject.
		_, _, _, sliceErr := wire.DecodeFrame(data)
		first := true

		r := wire.NewReader(bytes.NewReader(data))
		var o wire.Observe
		var d wire.Decide
		var c wire.Control
		var cr wire.ControlReply
		for {
			typ, payload, err := r.Next()
			if first {
				if (err == nil) != (sliceErr == nil) {
					t.Fatalf("Reader err %v, DecodeFrame err %v on the same bytes", err, sliceErr)
				}
				first = false
			}
			if err != nil {
				return
			}
			// Any payload the reader accepts must survive re-framing: the
			// router's relay path re-frames payloads verbatim with
			// AppendFrame, so the new frame must decode back bit-identically.
			if reframed, ferr := wire.AppendFrame(nil, typ, payload); ferr != nil {
				t.Fatalf("AppendFrame rejected an accepted payload (%d bytes): %v", len(payload), ferr)
			} else if t2, p2, rest, derr := wire.DecodeFrame(reframed); derr != nil || t2 != typ || len(rest) != 0 || !bytes.Equal(p2, payload) {
				t.Fatalf("re-framed payload mangled: typ %d→%d rest %d err %v", typ, t2, len(rest), derr)
			}
			switch typ {
			case wire.MsgObserve:
				if o.Decode(payload) == nil {
					// The zero-copy relay metadata must agree with the full
					// decoder on every frame the decoder accepts.
					id, flags, sess, merr := wire.ObserveMeta(payload)
					if merr != nil {
						t.Fatalf("ObserveMeta rejected a decodable observe: %v", merr)
					}
					if id != o.ID || flags != o.Flags || !bytes.Equal(sess, o.Session) {
						t.Fatalf("ObserveMeta = (%d, %#x, %q), Decode = (%d, %#x, %q)",
							id, flags, sess, o.ID, o.Flags, o.Session)
					}
					// Rewriting the id (what the relay does per request) must
					// change the id and nothing else.
					if err := wire.SetObserveID(payload, id^0xdeadbeef); err != nil {
						t.Fatalf("SetObserveID: %v", err)
					}
					var o2 wire.Observe
					if err := o2.Decode(payload); err != nil {
						t.Fatalf("observe broken by SetObserveID: %v", err)
					}
					if o2.ID != o.ID^0xdeadbeef || o2.Flags != o.Flags || !bytes.Equal(o2.Session, o.Session) ||
						!observationsBitEqual(o2.Obs, o.Obs) {
						t.Fatal("SetObserveID changed more than the id")
					}
				}
			case wire.MsgDecide:
				_ = d.Decode(payload)
			case wire.MsgControl:
				_ = c.Decode(payload)
			case wire.MsgControlReply:
				_ = cr.Decode(payload)
			}
		}
	})
}

// FuzzControlRoundTrip drives arbitrary control ops, sessions, and
// bodies through encode → decode (both directions of the control plane)
// and requires every field back exactly; out-of-bound inputs must be
// rejected by the encoder, cleanly.
func FuzzControlRoundTrip(f *testing.F) {
	f.Add(uint32(1), byte(1), "cluster-0", []byte(`{"governor":"rtm"}`), uint16(201))
	f.Add(uint32(2), byte(1), "w0",
		[]byte(`{"governor":"rtm","workload":"h264-football","warm_start":"deadbeef00112233","thermal_cap_mw":2500.5}`), uint16(201))
	f.Add(uint32(0), byte(6), "", []byte{}, uint16(404))
	f.Add(uint32(1<<31), byte(0xff), "s", bytes.Repeat([]byte{0}, 300), uint16(0))
	f.Fuzz(func(t *testing.T, id uint32, op byte, session string, body []byte, status uint16) {
		frame, err := wire.AppendControl(nil, id, op, session, body)
		if err != nil {
			if len(session) <= wire.MaxSession && len(body) < wire.MaxPayload-wire.MaxSession-32 {
				t.Fatalf("encoder rejected in-bounds control: %v", err)
			}
			return
		}
		typ, payload, rest, err := wire.DecodeFrame(frame)
		if err != nil || typ != wire.MsgControl || len(rest) != 0 {
			t.Fatalf("decoding our own control frame: typ %d rest %d err %v", typ, len(rest), err)
		}
		var m wire.Control
		if err := m.Decode(payload); err != nil {
			t.Fatalf("decoding our own control payload: %v", err)
		}
		if m.ID != id || m.Op != op || string(m.Session) != session || !bytes.Equal(m.Body, body) {
			t.Fatalf("control mangled: %+v", m)
		}

		reply, err := wire.AppendControlReply(nil, id, status, body)
		if err != nil {
			return // body can exceed the reply bound; rejection is the contract
		}
		typ, payload, rest, err = wire.DecodeFrame(reply)
		if err != nil || typ != wire.MsgControlReply || len(rest) != 0 {
			t.Fatalf("reply frame: typ %d rest %d err %v", typ, len(rest), err)
		}
		var r wire.ControlReply
		if err := r.Decode(payload); err != nil {
			t.Fatalf("reply payload: %v", err)
		}
		if r.ID != id || r.Status != status || !bytes.Equal(r.Body, body) {
			t.Fatalf("reply mangled: %+v", r)
		}
	})
}

// FuzzRoundTrip drives arbitrary field values through encode → decode and
// requires every field back bit-exactly. Values the encoder rejects
// (session or vectors over the protocol bound) must fail cleanly.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint32(1), "cluster-0", int64(41), 0.025, 0.04, 0.04, 2.25, 50.5, int32(10), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint32(0), "", int64(-1), 0.0, 0.0, 0.0, 0.0, 0.0, int32(-1), []byte{})
	f.Add(uint32(1<<31), "s", int64(1)<<40, math.Inf(1), math.NaN(), -0.0, 1e300, -40.0, int32(-5), bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, id uint32, session string, epoch int64,
		exec, period, wall, power, temp float64, opp int32, raw []byte) {
		obs := governor.Observation{
			Epoch:     int(epoch),
			ExecTimeS: exec,
			PeriodS:   period,
			WallTimeS: wall,
			PowerW:    power,
			TempC:     temp,
			OPPIdx:    int(opp),
		}
		// Derive the per-core vectors from the raw bytes: 8 bytes per
		// cycle entry, then 8 per util entry.
		for len(raw) >= 8 && len(obs.Cycles) < 6 {
			obs.Cycles = append(obs.Cycles, binary.BigEndian.Uint64(raw))
			raw = raw[8:]
		}
		for len(raw) >= 8 {
			obs.Util = append(obs.Util, math.Float64frombits(binary.BigEndian.Uint64(raw)))
			raw = raw[8:]
		}

		frame, err := wire.AppendObserve(nil, id, session, &obs)
		if err != nil {
			inBounds := len(session) <= wire.MaxSession &&
				len(obs.Cycles) <= wire.MaxVector && len(obs.Util) <= wire.MaxVector
			if inBounds {
				t.Fatalf("encoder rejected in-bounds input: %v", err)
			}
			return
		}
		typ, payload, rest, err := wire.DecodeFrame(frame)
		if err != nil || typ != wire.MsgObserve || len(rest) != 0 {
			t.Fatalf("decoding our own frame: typ %d rest %d err %v", typ, len(rest), err)
		}
		var m wire.Observe
		if err := m.Decode(payload); err != nil {
			t.Fatalf("decoding our own payload: %v", err)
		}
		if m.ID != id || string(m.Session) != session {
			t.Fatalf("id/session mangled: %d %q", m.ID, m.Session)
		}
		if !observationsBitEqual(m.Obs, obs) {
			t.Fatalf("observation mangled:\n got %+v\nwant %+v", m.Obs, obs)
		}

		errMsg := session // reuse the fuzzed string as an error message
		dframe, err := wire.AppendDecide(nil, id, uint32(opp), opp, int32(epoch), errMsg)
		if err != nil {
			t.Fatalf("AppendDecide: %v", err)
		}
		var dm wire.Decide
		typ, payload, rest, err = wire.DecodeFrame(dframe)
		if err != nil || typ != wire.MsgDecide || len(rest) != 0 {
			t.Fatalf("decide frame: typ %d rest %d err %v", typ, len(rest), err)
		}
		if err := dm.Decode(payload); err != nil {
			t.Fatalf("decide payload: %v", err)
		}
		if dm.ID != id || dm.MemberEpoch != uint32(opp) || dm.OPPIdx != opp || dm.FreqMHz != int32(epoch) || string(dm.Err) != errMsg {
			t.Fatalf("decide mangled: %+v", dm)
		}
	})
}
