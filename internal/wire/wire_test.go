package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"qgov/internal/governor"
	"qgov/internal/wire"
)

// opaqueFlag is an observe flag bit the codec does not interpret: it
// must pass through encode, decode and relay metadata untouched.
const opaqueFlag byte = 0x01

// unassignedOp is a control op no server implements; the codec frames
// it like any other op.
const unassignedOp byte = 0x08

func sampleObs() governor.Observation {
	return governor.Observation{
		Epoch:     41,
		Cycles:    []uint64{30e6, 31e6, 29e6, 30e6},
		Util:      []float64{0.6, 0.5, 0.7, 0.6},
		ExecTimeS: 0.025,
		PeriodS:   0.040,
		WallTimeS: 0.040,
		PowerW:    2.25,
		TempC:     50.5,
		OPPIdx:    10,
	}
}

// observationsBitEqual compares two observations field for field with
// float comparison by bits, so NaNs and negative zeros count as equal to
// themselves — the wire contract is bit-exact transport, not numeric
// equivalence.
func observationsBitEqual(a, b governor.Observation) bool {
	f64 := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if a.Epoch != b.Epoch || a.OPPIdx != b.OPPIdx ||
		!f64(a.ExecTimeS, b.ExecTimeS) || !f64(a.PeriodS, b.PeriodS) ||
		!f64(a.WallTimeS, b.WallTimeS) || !f64(a.PowerW, b.PowerW) || !f64(a.TempC, b.TempC) {
		return false
	}
	if len(a.Cycles) != len(b.Cycles) || len(a.Util) != len(b.Util) {
		return false
	}
	for i := range a.Cycles {
		if a.Cycles[i] != b.Cycles[i] {
			return false
		}
	}
	for i := range a.Util {
		if !f64(a.Util[i], b.Util[i]) {
			return false
		}
	}
	return true
}

func TestObserveRoundTrip(t *testing.T) {
	cases := []struct {
		name    string
		session string
		obs     governor.Observation
	}{
		{"steady", "cluster-0", sampleObs()},
		{"first-epoch", "s1", governor.Observation{Epoch: -1, OPPIdx: -1}},
		{"empty-vectors", "x", governor.Observation{Epoch: 3, ExecTimeS: 0.1}},
		{"nan-and-negzero", "n", governor.Observation{
			Epoch: 2, ExecTimeS: math.NaN(), PowerW: math.Copysign(0, -1),
			Util: []float64{math.Inf(1), math.Inf(-1)},
		}},
		{"max-session", strings.Repeat("a", wire.MaxSession), sampleObs()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frame, err := wire.AppendObserve(nil, 7, tc.session, &tc.obs)
			if err != nil {
				t.Fatal(err)
			}
			typ, payload, rest, err := wire.DecodeFrame(frame)
			if err != nil || typ != wire.MsgObserve || len(rest) != 0 {
				t.Fatalf("DecodeFrame: typ %d rest %d err %v", typ, len(rest), err)
			}
			var m wire.Observe
			if err := m.Decode(payload); err != nil {
				t.Fatal(err)
			}
			if m.ID != 7 || string(m.Session) != tc.session {
				t.Errorf("id/session mangled: %d %q", m.ID, m.Session)
			}
			if !observationsBitEqual(m.Obs, tc.obs) {
				t.Errorf("observation mangled:\n got %+v\nwant %+v", m.Obs, tc.obs)
			}
		})
	}
}

func TestDecideRoundTrip(t *testing.T) {
	for _, errMsg := range []string{"", `unknown session "ghost"`} {
		frame, err := wire.AppendDecide(nil, 9, 0, -1, 0, errMsg)
		if err != nil {
			t.Fatal(err)
		}
		frame, err = wire.AppendDecide(frame, 10, 7, 12, 1800, "")
		if err != nil {
			t.Fatal(err)
		}
		typ, payload, rest, err := wire.DecodeFrame(frame)
		if err != nil || typ != wire.MsgDecide {
			t.Fatalf("first frame: typ %d err %v", typ, err)
		}
		var m wire.Decide
		if err := m.Decode(payload); err != nil {
			t.Fatal(err)
		}
		if m.ID != 9 || m.MemberEpoch != 0 || m.OPPIdx != -1 || string(m.Err) != errMsg {
			t.Errorf("decide mangled: %+v", m)
		}
		typ, payload, rest, err = wire.DecodeFrame(rest)
		if err != nil || typ != wire.MsgDecide || len(rest) != 0 {
			t.Fatalf("second frame: typ %d rest %d err %v", typ, len(rest), err)
		}
		if err := m.Decode(payload); err != nil {
			t.Fatal(err)
		}
		if m.ID != 10 || m.MemberEpoch != 7 || m.OPPIdx != 12 || m.FreqMHz != 1800 || len(m.Err) != 0 {
			t.Errorf("second decide mangled: %+v", m)
		}
	}
}

// TestObserveFlagsRoundTrip pins the flags byte: an observe encoded
// with an opaque flag bit decodes with it set, a plain AppendObserve
// with zero.
func TestObserveFlagsRoundTrip(t *testing.T) {
	obs := sampleObs()
	frame, err := wire.AppendObserveBytes(nil, 3, opaqueFlag, []byte("c0"), &obs)
	if err != nil {
		t.Fatal(err)
	}
	var m wire.Observe
	_, payload, _, err := wire.DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Decode(payload); err != nil {
		t.Fatal(err)
	}
	if m.ID != 3 || m.Flags != opaqueFlag || string(m.Session) != "c0" {
		t.Errorf("flagged observe mangled: id %d flags %#x session %q", m.ID, m.Flags, m.Session)
	}
	if !observationsBitEqual(m.Obs, obs) {
		t.Errorf("observation mangled through AppendObserveBytes")
	}

	plain, err := wire.AppendObserve(nil, 3, "c0", &obs)
	if err != nil {
		t.Fatal(err)
	}
	_, payload, _, _ = wire.DecodeFrame(plain)
	if err := m.Decode(payload); err != nil {
		t.Fatal(err)
	}
	if m.Flags != 0 {
		t.Errorf("plain observe carries flags %#x", m.Flags)
	}
	// The two encodings differ only in the flags byte.
	if len(frame) != len(plain) {
		t.Errorf("frame lengths differ: %d vs %d", len(frame), len(plain))
	}
}

func TestAppendObserveBounds(t *testing.T) {
	obs := sampleObs()
	if _, err := wire.AppendObserve(nil, 1, strings.Repeat("a", wire.MaxSession+1), &obs); !errors.Is(err, wire.ErrTooLong) {
		t.Errorf("oversized session: %v", err)
	}
	obs.Cycles = make([]uint64, wire.MaxVector+1)
	if _, err := wire.AppendObserve(nil, 1, "s", &obs); !errors.Is(err, wire.ErrTooLong) {
		t.Errorf("oversized cycles: %v", err)
	}
	// A failed append must leave dst untouched.
	dst := []byte{1, 2, 3}
	out, err := wire.AppendObserve(dst, 1, "s", &obs)
	if err == nil || len(out) != 3 {
		t.Errorf("failed append grew dst to %d bytes (err %v)", len(out), err)
	}
}

func validObserveFrame(t testing.TB) []byte {
	t.Helper()
	obs := sampleObs()
	frame, err := wire.AppendObserve(nil, 1, "c0", &obs)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func TestDecodeFrameErrors(t *testing.T) {
	frame := validObserveFrame(t)

	t.Run("truncated-everywhere", func(t *testing.T) {
		for n := 0; n < len(frame); n++ {
			if _, _, _, err := wire.DecodeFrame(frame[:n]); !errors.Is(err, wire.ErrTruncated) {
				t.Fatalf("prefix of %d bytes: %v", n, err)
			}
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		b := bytes.Clone(frame)
		b[0] ^= 0xff
		if _, _, _, err := wire.DecodeFrame(b); !errors.Is(err, wire.ErrBadMagic) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("bad-version", func(t *testing.T) {
		b := bytes.Clone(frame)
		b[2] = wire.Version + 1
		if _, _, _, err := wire.DecodeFrame(b); !errors.Is(err, wire.ErrBadVersion) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("oversized-length", func(t *testing.T) {
		b := bytes.Clone(frame)
		binary.BigEndian.PutUint32(b[4:], wire.MaxPayload+1)
		if _, _, _, err := wire.DecodeFrame(b); !errors.Is(err, wire.ErrFrameTooLarge) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("payload-truncated", func(t *testing.T) {
		// Shorten the payload but leave the length prefix: the message
		// decode must reject it without reading past the end.
		_, payload, _, err := wire.DecodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		var m wire.Observe
		for n := 0; n < len(payload); n++ {
			if err := m.Decode(payload[:n]); err == nil {
				t.Fatalf("payload prefix of %d bytes decoded cleanly", n)
			}
		}
	})
	t.Run("trailing-bytes", func(t *testing.T) {
		_, payload, _, err := wire.DecodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		grown := append(bytes.Clone(payload), 0)
		var m wire.Observe
		if err := m.Decode(grown); !errors.Is(err, wire.ErrTrailingBytes) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("vector-count-lies", func(t *testing.T) {
		// Claim 65535 cycle entries with no bytes behind them: must error
		// before allocating anything of that size.
		var m wire.Observe
		p := bytes.Clone(validObserveFrame(t)[wire.HeaderSize:])
		// cycles count sits after the fixed 50-byte prefix + session.
		off := 4 + 1 + 8 + 5*8 + 4 + 1 + 2 // id, flags, epoch, floats, opp, sesslen, "c0"
		binary.BigEndian.PutUint16(p[off:], 0xffff)
		if err := m.Decode(p); err == nil {
			t.Error("lying vector count decoded cleanly")
		}
	})
}

func TestReaderStream(t *testing.T) {
	obs := sampleObs()
	var stream []byte
	var err error
	for i := 0; i < 5; i++ {
		obs.Epoch = i
		stream, err = wire.AppendObserve(stream, uint32(i), "c0", &obs)
		if err != nil {
			t.Fatal(err)
		}
	}
	r := wire.NewReader(bytes.NewReader(stream))
	var m wire.Observe
	for i := 0; i < 5; i++ {
		typ, payload, err := r.Next()
		if err != nil || typ != wire.MsgObserve {
			t.Fatalf("frame %d: typ %d err %v", i, typ, err)
		}
		if err := m.Decode(payload); err != nil {
			t.Fatal(err)
		}
		if m.ID != uint32(i) || m.Obs.Epoch != i {
			t.Fatalf("frame %d decoded as id %d epoch %d", i, m.ID, m.Obs.Epoch)
		}
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Errorf("clean end of stream returned %v, want io.EOF", err)
	}

	// A stream cut mid-frame is an unexpected EOF, not a clean one.
	r = wire.NewReader(bytes.NewReader(stream[:len(stream)-3]))
	for i := 0; i < 4; i++ {
		if _, _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := r.Next(); err != io.ErrUnexpectedEOF {
		t.Errorf("mid-frame end of stream returned %v, want io.ErrUnexpectedEOF", err)
	}
}

// The codec hot path must not allocate in steady state: encode appends
// into a reused buffer, decode reuses the message's slice capacity.
func TestCodecZeroAlloc(t *testing.T) {
	obs := sampleObs()
	var buf []byte
	var err error
	if buf, err = wire.AppendObserve(buf[:0], 1, "cluster-0", &obs); err != nil {
		t.Fatal(err)
	}
	payload := buf[wire.HeaderSize:]
	var m wire.Observe
	if err := m.Decode(payload); err != nil {
		t.Fatal(err)
	}

	if n := testing.AllocsPerRun(200, func() {
		buf, err = wire.AppendObserve(buf[:0], 1, "cluster-0", &obs)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendObserve allocates %.1f/op in steady state", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := m.Decode(payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Observe.Decode allocates %.1f/op in steady state", n)
	}

	dec, err := wire.AppendDecide(nil, 1, 1, 10, 1800, "")
	if err != nil {
		t.Fatal(err)
	}
	var dm wire.Decide
	if n := testing.AllocsPerRun(200, func() {
		dec, err = wire.AppendDecide(dec[:0], 1, 1, 10, 1800, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := dm.Decode(dec[wire.HeaderSize:]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Decide round-trip allocates %.1f/op in steady state", n)
	}
}
