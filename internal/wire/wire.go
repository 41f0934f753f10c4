// Package wire is the binary frame codec behind the rtmd streaming
// transport. The HTTP+JSON endpoint costs ~7 µs of encode/decode per
// decision — two orders of magnitude more than the governor's own work —
// so the serving fast path speaks length-prefixed binary frames over
// persistent TCP connections instead.
//
// Every frame is
//
//	offset  size  field
//	0       2     magic 0x5147 ("QG"), big-endian
//	2       1     protocol version (1)
//	3       1     message type
//	4       4     payload length, big-endian
//	8       n     payload
//
// Two message types carry the decision loop. MsgObserve (client →
// server) reports one completed decision epoch for one session — the
// same observation POST /v1/decide carries as JSON — and asks for the
// next operating point. MsgDecide (server → client) answers with the
// OPP index to apply; stepping the controlled cluster under that OPP is
// the client's side of the loop, and the next MsgObserve implicitly
// acknowledges it. Frames carry a request id chosen by the client so
// many callers can multiplex one connection.
//
// Two more types carry the control plane. MsgControl asks the server to
// run one session-lifecycle operation (create, checkpoint, delete,
// info, metrics, list, health, members — the Op* constants, mirroring
// the HTTP API one endpoint for one op, with the same JSON bodies,
// except OpMembers whose body is the Members table); MsgControlReply
// answers it with an HTTP status code and the JSON response. Control
// frames are what let a routing tier drive a replica fleet entirely
// over binary connections; they are rare (session lifetime, not
// decision rate), so their JSON bodies cost nothing the hot path sees.
//
// All integers are big-endian; floats travel as IEEE-754 bits, so every
// observation field round-trips bit-exactly — the serve layer's
// byte-identical-decisions contract holds over this transport exactly as
// it does over JSON (which round-trips float64 via shortest-form
// decimals).
//
// The codec is allocation-free in steady state: Append* functions append
// to a caller scratch buffer, Decode methods reuse the capacity of the
// slices already hanging off the message struct, and Reader reuses one
// payload buffer across frames. Decode validates every length before
// reading or allocating, so truncated, oversized, and bit-flipped frames
// return errors — never panics or unbounded allocation (the fuzz targets
// hold the codec to that).
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"qgov/internal/governor"
)

const (
	// Magic opens every frame: "QG" on the wire.
	Magic uint16 = 0x5147
	// Version is the protocol version this package speaks.
	Version byte = 1
	// HeaderSize is the fixed frame-header length.
	HeaderSize = 8
	// MaxPayload bounds one frame's payload; a length prefix beyond it
	// is rejected before any allocation.
	MaxPayload = 1 << 20
	// MaxSession bounds the session-id length (mirrors the serve layer's
	// id pattern, which caps ids at 128 filename-safe bytes).
	MaxSession = 128
	// MaxVector bounds the per-core Cycles/Util vectors; no platform in
	// the scenario registry has more cores than this.
	MaxVector = 4096
)

// Message types.
const (
	// MsgObserve carries one session's epoch observation to the server.
	MsgObserve byte = 0x01
	// MsgDecide carries one operating-point decision (or a per-request
	// error) back to the client.
	MsgDecide byte = 0x02
	// MsgControl carries one control-plane operation (session create,
	// checkpoint, delete, ...) to the server. Control frames complete the
	// protocol: a routed fleet runs entirely over binary connections,
	// with no HTTP side channel between router and replica.
	MsgControl byte = 0x03
	// MsgControlReply answers a MsgControl with a status code and a JSON
	// body.
	MsgControlReply byte = 0x04
)

// Control operations. The ops mirror the HTTP control plane one for
// one; bodies and reply bodies are the same JSON documents the HTTP
// endpoints exchange (control traffic is rare — session lifetime, not
// decision rate — so JSON costs nothing that matters and keeps one
// schema across both planes).
const (
	// OpCreate creates a session; the body is the JSON create request,
	// the reply body the session info.
	OpCreate byte = 0x01
	// OpCheckpoint freezes the session's learnt state now; the reply
	// body carries the frozen state.
	OpCheckpoint byte = 0x02
	// OpDelete drops the session and its checkpoint.
	OpDelete byte = 0x03
	// OpInfo returns the session's info JSON.
	OpInfo byte = 0x04
	// OpMetrics returns the server's metrics JSON (the /v1/metrics body);
	// an optional JSON body {"top": K} adds the K busiest learning
	// sessions. The session field is ignored.
	OpMetrics byte = 0x05
	// OpList returns one page of session infos sorted by id; an optional
	// JSON body {"after": id, "limit": n} picks the page, and the reply
	// carries a "next" cursor when more follow. The session field is
	// ignored.
	OpList byte = 0x06
	// OpHealth returns the /healthz body (status + counters) — O(1) on
	// the replica, so a router can aggregate fleet liveness without
	// enumerating sessions; the session field is ignored.
	OpHealth byte = 0x07
	// OpMembers carries the fleet membership table. With an empty body it
	// is a fetch: the reply body is the Members document describing the
	// current ring (routers answer with the fleet table; flat replicas
	// answer with whatever table was last installed, epoch 0 when none).
	// With a non-empty body it is a push: the router installs the table on
	// a replica so the replica can recognise — and forward — decides for
	// sessions the ring places elsewhere. The session field is ignored.
	OpMembers byte = 0x08
	// OpTrace returns recent decide-path spans from the server's trace
	// ring. The body is the JSON filter (/v1/trace's query parameters as
	// a document: min_us, session, trace, limit), the reply body the JSON
	// span array — what lets a router stitch fleet-wide traces without an
	// HTTP side channel to its replicas. The session field is ignored.
	OpTrace byte = 0x09
)

// Observe flags.
const (
	// FlagForwarded marks an observe that one replica relayed to another
	// on behalf of a stale direct client. A receiver never re-forwards a
	// flagged observe, so transient membership disagreement between two
	// replicas is bounded to one extra hop instead of a forwarding loop.
	FlagForwarded byte = 0x01
	// FlagTraced marks an observe carrying a trace id: 8 extra big-endian
	// bytes appended after the util vector. The id travels at the payload
	// tail so every fixed offset (ObserveMeta, SetObserveID) stays valid,
	// untraced frames are byte-identical to protocol version 1 without the
	// flag, and a relay can tag a frame in flight by setting the bit and
	// appending the id — no re-encode, no offset shuffle.
	FlagTraced byte = 0x02
)

// Members is the JSON body of OpMembers frames — the one membership
// schema both sides of the protocol share. The router stamps Epoch on
// every ring change (monotonically increasing, starting at 1); replicas
// report their installed epoch in their health document, which the
// router's prober reads to re-push the table to a restarted replica.
type Members struct {
	// Epoch is the membership generation; 0 means "no fleet table".
	Epoch uint32 `json:"epoch"`
	// VNodes is the ring's virtual-node count; clients must build their
	// ring with the same value to compute the same placement.
	VNodes int `json:"vnodes"`
	// Members lists the replica addresses on the ring, as dialed by the
	// router.
	Members []string `json:"members"`
	// Self, set only on pushes, is the receiving replica's own address as
	// the fleet knows it — what the replica compares ring owners against.
	Self string `json:"self,omitempty"`
	// Down, set on fetch replies, lists members the router's prober
	// currently reports unreachable; direct clients route their keys via
	// the router instead of dialing them.
	Down []string `json:"down,omitempty"`
}

// Codec errors. Reader and Decode wrap or return these; io errors from
// the underlying stream pass through unwrapped.
var (
	ErrBadMagic      = errors.New("wire: bad frame magic")
	ErrBadVersion    = errors.New("wire: unsupported protocol version")
	ErrFrameTooLarge = errors.New("wire: frame payload exceeds MaxPayload")
	ErrTruncated     = errors.New("wire: truncated message")
	ErrTrailingBytes = errors.New("wire: trailing bytes after message")
	ErrTooLong       = errors.New("wire: field exceeds protocol bound")
)

// Observe is the decoded MsgObserve payload: one request id, the session
// it addresses, and the observation of the epoch that just completed.
// Decode reuses Session and Obs.Cycles/Obs.Util capacity, so a steady
// stream of frames decodes without allocating.
type Observe struct {
	ID uint32
	// Flags carries per-request transport flags (FlagForwarded,
	// FlagTraced).
	Flags   byte
	Session []byte
	Obs     governor.Observation
	// TraceID is the propagated trace id when Flags carries FlagTraced,
	// 0 otherwise. A server decides the request identically either way;
	// the id only routes the request's spans to one stitched trace.
	TraceID uint64
}

// Decide is the decoded MsgDecide payload. OPPIdx is -1 and Err non-empty
// when the request failed (unknown session, rejected observation);
// requests fail independently, exactly like entries of the JSON batch.
// MemberEpoch is a reserved field: servers send 0, and it stays only to
// keep the frame layout.
type Decide struct {
	ID          uint32
	MemberEpoch uint32
	OPPIdx      int32
	FreqMHz     int32
	Err         []byte
}

// Control is the decoded MsgControl payload: one control-plane operation
// addressed to a session (Session may be empty for server-scoped ops),
// with a JSON body whose schema is the op's HTTP twin. Decode reuses
// Session and Body capacity.
type Control struct {
	ID      uint32
	Op      byte
	Session []byte
	Body    []byte
}

// ControlReply is the decoded MsgControlReply payload. Status carries
// the operation's HTTP status code — the two control planes share one
// status vocabulary — and Body the JSON response (an {"error": ...}
// document when Status is not 2xx).
type ControlReply struct {
	ID     uint32
	Status uint16
	Body   []byte
}

// appendHeader opens a frame and returns dst plus the offset of the
// length field, which the caller patches once the payload is appended.
func appendHeader(dst []byte, typ byte) ([]byte, int) {
	dst = append(dst, byte(Magic>>8), byte(Magic&0xff), Version, typ, 0, 0, 0, 0)
	return dst, len(dst) - 4
}

func appendU16(dst []byte, v uint16) []byte {
	return append(dst, byte(v>>8), byte(v))
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendF64(dst []byte, v float64) []byte {
	return appendU64(dst, math.Float64bits(v))
}

// AppendObserve appends one complete MsgObserve frame to dst and returns
// the extended slice. It fails only on protocol-bound violations (session
// or vector too long), leaving dst's original contents intact.
func AppendObserve(dst []byte, id uint32, session string, obs *governor.Observation) ([]byte, error) {
	return AppendObserveFlags(dst, id, 0, session, obs)
}

// AppendObserveBytes is AppendObserve for callers that already hold the
// session id as bytes (a router regrouping decoded frames, a replica
// forwarding a misrouted decide) plus explicit flags — it skips the
// []byte→string conversion the hot path would otherwise pay per request.
func AppendObserveBytes(dst []byte, id uint32, flags byte, session []byte, obs *governor.Observation) ([]byte, error) {
	return AppendObserveFlags(dst, id, flags, session, obs)
}

// AppendObserveFlags is the generic core of AppendObserve and
// AppendObserveBytes: one encoder over both session representations, so
// hot paths holding []byte session ids never convert to string.
func AppendObserveFlags[S string | []byte](dst []byte, id uint32, flags byte, session S, obs *governor.Observation) ([]byte, error) {
	return AppendObserveTraced(dst, id, flags, 0, session, obs)
}

// AppendObserveTraced is AppendObserveFlags plus a trace id: when trace
// is nonzero the frame carries FlagTraced and the id as its trailing 8
// bytes, so the receiving server's decide spans stitch to the caller's.
// A zero trace encodes a plain untraced frame (FlagTraced stripped from
// flags if present — a traced flag without an id would desync decode).
func AppendObserveTraced[S string | []byte](dst []byte, id uint32, flags byte, trace uint64, session S, obs *governor.Observation) ([]byte, error) {
	if trace != 0 {
		flags |= FlagTraced
	} else {
		flags &^= FlagTraced
	}
	if len(session) > MaxSession {
		return dst, fmt.Errorf("%w: session id of %d bytes (max %d)", ErrTooLong, len(session), MaxSession)
	}
	if len(obs.Cycles) > MaxVector || len(obs.Util) > MaxVector {
		return dst, fmt.Errorf("%w: %d cycles / %d utils (max %d)", ErrTooLong, len(obs.Cycles), len(obs.Util), MaxVector)
	}
	orig := len(dst)
	out, lenAt := appendHeader(dst, MsgObserve)
	start := len(out)
	out = appendU32(out, id)
	out = append(out, flags)
	out = appendU64(out, uint64(int64(obs.Epoch)))
	out = appendF64(out, obs.ExecTimeS)
	out = appendF64(out, obs.PeriodS)
	out = appendF64(out, obs.WallTimeS)
	out = appendF64(out, obs.PowerW)
	out = appendF64(out, obs.TempC)
	out = appendU32(out, uint32(int32(obs.OPPIdx)))
	out = append(out, byte(len(session)))
	out = append(out, session...)
	out = appendU16(out, uint16(len(obs.Cycles)))
	for _, c := range obs.Cycles {
		out = appendU64(out, c)
	}
	out = appendU16(out, uint16(len(obs.Util)))
	for _, u := range obs.Util {
		out = appendF64(out, u)
	}
	if trace != 0 {
		out = appendU64(out, trace)
	}
	if len(out)-start > MaxPayload {
		return dst[:orig], ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(out[lenAt:], uint32(len(out)-start))
	return out, nil
}

// AppendDecide appends one complete MsgDecide frame to dst. memberEpoch
// fills the reserved field Decide.MemberEpoch; servers pass 0, and the
// field stays only to keep the frame layout.
func AppendDecide(dst []byte, id, memberEpoch uint32, oppIdx, freqMHz int32, errMsg string) ([]byte, error) {
	if len(errMsg) > math.MaxUint16 {
		return dst, fmt.Errorf("%w: error message of %d bytes", ErrTooLong, len(errMsg))
	}
	out, lenAt := appendHeader(dst, MsgDecide)
	start := len(out)
	out = appendU32(out, id)
	out = appendU32(out, memberEpoch)
	out = appendU32(out, uint32(oppIdx))
	out = appendU32(out, uint32(freqMHz))
	out = appendU16(out, uint16(len(errMsg)))
	out = append(out, errMsg...)
	// 18 fixed bytes + a ≤65535-byte error message cannot reach MaxPayload.
	binary.BigEndian.PutUint32(out[lenAt:], uint32(len(out)-start))
	return out, nil
}

// AppendControl appends one complete MsgControl frame to dst. The body
// is bounded by the frame payload limit; control bodies are JSON
// documents (create requests, checkpoint states) well under it.
func AppendControl(dst []byte, id uint32, op byte, session string, body []byte) ([]byte, error) {
	if len(session) > MaxSession {
		return dst, fmt.Errorf("%w: session id of %d bytes (max %d)", ErrTooLong, len(session), MaxSession)
	}
	if HeaderSize+10+len(session)+len(body) > MaxPayload {
		return dst, ErrFrameTooLarge
	}
	out, lenAt := appendHeader(dst, MsgControl)
	start := len(out)
	out = appendU32(out, id)
	out = append(out, op)
	out = append(out, byte(len(session)))
	out = append(out, session...)
	out = appendU32(out, uint32(len(body)))
	out = append(out, body...)
	binary.BigEndian.PutUint32(out[lenAt:], uint32(len(out)-start))
	return out, nil
}

// AppendControlReply appends one complete MsgControlReply frame to dst.
func AppendControlReply(dst []byte, id uint32, status uint16, body []byte) ([]byte, error) {
	if HeaderSize+10+len(body) > MaxPayload {
		return dst, ErrFrameTooLarge
	}
	out, lenAt := appendHeader(dst, MsgControlReply)
	start := len(out)
	out = appendU32(out, id)
	out = appendU16(out, status)
	out = appendU32(out, uint32(len(body)))
	out = append(out, body...)
	binary.BigEndian.PutUint32(out[lenAt:], uint32(len(out)-start))
	return out, nil
}

// Fixed offsets inside a MsgObserve payload. The layout is
// AppendObserveFlags's append order: id u32, flags u8, epoch u64, five
// f64 scalars, OPP u32, session length u8, session bytes, then the
// variable-length cycle/util vectors. Everything before the session is
// fixed-width, which is what lets a relay patch the request id and read
// the routing key without decoding the frame.
const (
	observeFlagsOff   = 4
	observeSessLenOff = 57
	observeSessOff    = 58
)

// ObserveMeta reads the routing metadata — request id, flags, session
// id — off an encoded MsgObserve payload without decoding the
// observation. The returned session aliases payload. A router relaying
// frames to ring owners uses this instead of Observe.Decode: picking an
// owner needs only the session bytes, and the observation travels on
// untouched.
func ObserveMeta(payload []byte) (id uint32, flags byte, session []byte, err error) {
	if len(payload) < observeSessOff {
		return 0, 0, nil, ErrTruncated
	}
	n := int(payload[observeSessLenOff])
	if n > MaxSession {
		return 0, 0, nil, fmt.Errorf("%w: session id of %d bytes", ErrTooLong, n)
	}
	if len(payload) < observeSessOff+n {
		return 0, 0, nil, ErrTruncated
	}
	return binary.BigEndian.Uint32(payload), payload[observeFlagsOff], payload[observeSessOff : observeSessOff+n], nil
}

// SetObserveID rewrites the request id of an encoded MsgObserve payload
// in place — the only byte-level mutation a relay makes before
// forwarding a frame under its own id space.
func SetObserveID(payload []byte, id uint32) error {
	if len(payload) < 4 {
		return ErrTruncated
	}
	binary.BigEndian.PutUint32(payload, id)
	return nil
}

// ObserveTraceID reads the propagated trace id off an encoded MsgObserve
// payload in O(1): the flags byte says whether the frame is traced, and
// the id is always the trailing 8 bytes. Returns (0, false) for an
// untraced or too-short payload.
func ObserveTraceID(payload []byte) (uint64, bool) {
	if len(payload) < observeSessOff+8 || payload[observeFlagsOff]&FlagTraced == 0 {
		return 0, false
	}
	return binary.BigEndian.Uint64(payload[len(payload)-8:]), true
}

// AppendObserveTrace tags an encoded MsgObserve payload with a trace id
// without re-encoding it: set FlagTraced in place, append the id's 8
// bytes, return the (possibly reallocated) payload. An already-traced
// payload keeps its length and has its trailing id overwritten — a relay
// adopting an upstream id calls this idempotently. This is the router's
// injection path: the zero-copy relay tags the raw payload it received
// and AppendFrame re-frames it with the corrected length.
func AppendObserveTrace(payload []byte, trace uint64) ([]byte, error) {
	if len(payload) < observeSessOff {
		return payload, ErrTruncated
	}
	if trace == 0 {
		return payload, nil
	}
	if payload[observeFlagsOff]&FlagTraced != 0 {
		if len(payload) < observeSessOff+8 {
			return payload, ErrTruncated
		}
		binary.BigEndian.PutUint64(payload[len(payload)-8:], trace)
		return payload, nil
	}
	payload[observeFlagsOff] |= FlagTraced
	return appendU64(payload, trace), nil
}

// AppendFrame frames an already-encoded payload: header plus payload
// bytes, no interpretation. Relays use it to forward a payload they
// received (id rewritten via SetObserveID) without re-encoding it.
func AppendFrame(dst []byte, typ byte, payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		return dst, ErrFrameTooLarge
	}
	out, lenAt := appendHeader(dst, typ)
	out = append(out, payload...)
	binary.BigEndian.PutUint32(out[lenAt:], uint32(len(payload)))
	return out, nil
}

// decoder walks a payload with bounds checks; every take* reports
// truncation instead of reading past the end.
type decoder struct {
	p   []byte
	off int
}

func (d *decoder) remain() int { return len(d.p) - d.off }

func (d *decoder) takeU8(v *byte) bool {
	if d.remain() < 1 {
		return false
	}
	*v = d.p[d.off]
	d.off++
	return true
}

func (d *decoder) takeU16(v *uint16) bool {
	if d.remain() < 2 {
		return false
	}
	*v = binary.BigEndian.Uint16(d.p[d.off:])
	d.off += 2
	return true
}

func (d *decoder) takeU32(v *uint32) bool {
	if d.remain() < 4 {
		return false
	}
	*v = binary.BigEndian.Uint32(d.p[d.off:])
	d.off += 4
	return true
}

func (d *decoder) takeU64(v *uint64) bool {
	if d.remain() < 8 {
		return false
	}
	*v = binary.BigEndian.Uint64(d.p[d.off:])
	d.off += 8
	return true
}

func (d *decoder) takeF64(v *float64) bool {
	var bits uint64
	if !d.takeU64(&bits) {
		return false
	}
	*v = math.Float64frombits(bits)
	return true
}

// takeBytes copies n payload bytes into *dst, reusing its capacity.
func (d *decoder) takeBytes(dst *[]byte, n int) bool {
	if d.remain() < n {
		return false
	}
	*dst = append((*dst)[:0], d.p[d.off:d.off+n]...)
	d.off += n
	return true
}

// Decode parses a MsgObserve payload into m, reusing m's slice capacity.
// m is unspecified (but safe to reuse) after an error.
func (m *Observe) Decode(payload []byte) error {
	d := decoder{p: payload}
	var epoch uint64
	var opp uint32
	var sessLen byte
	ok := d.takeU32(&m.ID) &&
		d.takeU8(&m.Flags) &&
		d.takeU64(&epoch) &&
		d.takeF64(&m.Obs.ExecTimeS) &&
		d.takeF64(&m.Obs.PeriodS) &&
		d.takeF64(&m.Obs.WallTimeS) &&
		d.takeF64(&m.Obs.PowerW) &&
		d.takeF64(&m.Obs.TempC) &&
		d.takeU32(&opp) &&
		d.takeU8(&sessLen)
	if !ok {
		return ErrTruncated
	}
	m.Obs.Epoch = int(int64(epoch))
	m.Obs.OPPIdx = int(int32(opp))
	if int(sessLen) > MaxSession {
		return fmt.Errorf("%w: session id of %d bytes", ErrTooLong, sessLen)
	}
	if !d.takeBytes(&m.Session, int(sessLen)) {
		return ErrTruncated
	}
	var n uint16
	if !d.takeU16(&n) {
		return ErrTruncated
	}
	if int(n) > MaxVector {
		return fmt.Errorf("%w: %d cycle entries", ErrTooLong, n)
	}
	if d.remain() < int(n)*8 {
		return ErrTruncated
	}
	m.Obs.Cycles = m.Obs.Cycles[:0]
	for i := 0; i < int(n); i++ {
		var c uint64
		d.takeU64(&c)
		m.Obs.Cycles = append(m.Obs.Cycles, c)
	}
	if !d.takeU16(&n) {
		return ErrTruncated
	}
	if int(n) > MaxVector {
		return fmt.Errorf("%w: %d util entries", ErrTooLong, n)
	}
	if d.remain() < int(n)*8 {
		return ErrTruncated
	}
	m.Obs.Util = m.Obs.Util[:0]
	for i := 0; i < int(n); i++ {
		var u float64
		d.takeF64(&u)
		m.Obs.Util = append(m.Obs.Util, u)
	}
	m.TraceID = 0
	if m.Flags&FlagTraced != 0 && !d.takeU64(&m.TraceID) {
		return ErrTruncated
	}
	if d.remain() != 0 {
		return ErrTrailingBytes
	}
	return nil
}

// Decode parses a MsgDecide payload into m, reusing m.Err capacity.
func (m *Decide) Decode(payload []byte) error {
	d := decoder{p: payload}
	var opp, freq uint32
	var errLen uint16
	if !(d.takeU32(&m.ID) && d.takeU32(&m.MemberEpoch) && d.takeU32(&opp) && d.takeU32(&freq) && d.takeU16(&errLen)) {
		return ErrTruncated
	}
	m.OPPIdx = int32(opp)
	m.FreqMHz = int32(freq)
	if !d.takeBytes(&m.Err, int(errLen)) {
		return ErrTruncated
	}
	if d.remain() != 0 {
		return ErrTrailingBytes
	}
	return nil
}

// Decode parses a MsgControl payload into m, reusing m's slice capacity.
func (m *Control) Decode(payload []byte) error {
	d := decoder{p: payload}
	var sessLen byte
	if !(d.takeU32(&m.ID) && d.takeU8(&m.Op) && d.takeU8(&sessLen)) {
		return ErrTruncated
	}
	if int(sessLen) > MaxSession {
		return fmt.Errorf("%w: session id of %d bytes", ErrTooLong, sessLen)
	}
	if !d.takeBytes(&m.Session, int(sessLen)) {
		return ErrTruncated
	}
	var bodyLen uint32
	if !d.takeU32(&bodyLen) {
		return ErrTruncated
	}
	// The frame bound already caps the payload; checking against what
	// actually remains rejects a forged length before any allocation.
	if int64(bodyLen) != int64(d.remain()) {
		if int(bodyLen) > d.remain() {
			return ErrTruncated
		}
		return ErrTrailingBytes
	}
	if !d.takeBytes(&m.Body, int(bodyLen)) {
		return ErrTruncated
	}
	return nil
}

// Decode parses a MsgControlReply payload into m, reusing m.Body capacity.
func (m *ControlReply) Decode(payload []byte) error {
	d := decoder{p: payload}
	if !(d.takeU32(&m.ID) && d.takeU16(&m.Status)) {
		return ErrTruncated
	}
	var bodyLen uint32
	if !d.takeU32(&bodyLen) {
		return ErrTruncated
	}
	if int64(bodyLen) != int64(d.remain()) {
		if int(bodyLen) > d.remain() {
			return ErrTruncated
		}
		return ErrTrailingBytes
	}
	if !d.takeBytes(&m.Body, int(bodyLen)) {
		return ErrTruncated
	}
	return nil
}

// checkHeader validates a frame header and returns its type and payload
// length.
func checkHeader(hdr []byte) (typ byte, n int, err error) {
	if binary.BigEndian.Uint16(hdr) != Magic {
		return 0, 0, ErrBadMagic
	}
	if hdr[2] != Version {
		return 0, 0, fmt.Errorf("%w: got %d, speak %d", ErrBadVersion, hdr[2], Version)
	}
	n = int(binary.BigEndian.Uint32(hdr[4:]))
	if n > MaxPayload {
		return 0, 0, ErrFrameTooLarge
	}
	return hdr[3], n, nil
}

// DecodeFrame splits one frame off the front of b, returning its type,
// payload, and the remaining bytes. The payload aliases b.
func DecodeFrame(b []byte) (typ byte, payload, rest []byte, err error) {
	if len(b) < HeaderSize {
		return 0, nil, b, ErrTruncated
	}
	typ, n, err := checkHeader(b[:HeaderSize])
	if err != nil {
		return 0, nil, b, err
	}
	if len(b) < HeaderSize+n {
		return 0, nil, b, ErrTruncated
	}
	return typ, b[HeaderSize : HeaderSize+n], b[HeaderSize+n:], nil
}

// Reader reads frames off a stream, reusing one payload buffer: the
// payload returned by Next is valid only until the following call. A
// clean end of stream at a frame boundary returns io.EOF; mid-frame it
// returns io.ErrUnexpectedEOF.
type Reader struct {
	br  *bufio.Reader
	hdr [HeaderSize]byte
	buf []byte
}

// NewReader wraps r. The buffer is sized for a full decide batch of
// observe frames between flushes.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 64<<10)}
}

// Next returns the next frame. Protocol errors (bad magic, bad version,
// oversized frame) poison the stream — framing is lost, so callers must
// drop the connection.
func (r *Reader) Next() (typ byte, payload []byte, err error) {
	if _, err := io.ReadFull(r.br, r.hdr[:]); err != nil {
		return 0, nil, err // io.EOF exactly at a frame boundary
	}
	typ, n, err := checkHeader(r.hdr[:])
	if err != nil {
		return 0, nil, err
	}
	if cap(r.buf) < n {
		r.buf = make([]byte, n) // bounded by MaxPayload
	}
	payload = r.buf[:n]
	if _, err := io.ReadFull(r.br, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return typ, payload, nil
}
