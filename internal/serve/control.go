package serve

import (
	"encoding/json"
	"log/slog"
	"net/http"

	"qgov/internal/wire"
)

// control implements connBackend: it executes one control-plane
// operation. The HTTP routes call it too (http.go), so the two control
// planes share request and response JSON and status codes by
// construction and differ only in framing. On the binary plane it runs
// in the TCP connection worker between decide batches (control frames
// are ordering barriers; see tcpConn.dispatch).
func (s *Server) control(op byte, session string, body []byte) (status uint16, resp []byte) {
	switch op {
	case wire.OpCreate:
		var req createRequest
		if len(body) > 0 {
			if err := json.Unmarshal(body, &req); err != nil {
				return http.StatusBadRequest, errorBody(err)
			}
		}
		if session != "" {
			req.ID = session
		}
		sess, st, err := s.createSession(req)
		if err != nil {
			return uint16(st), errorBody(err)
		}
		s.log.Info("session created", "session", sess.id, "governor", sess.govName, "platform", sess.platName)
		return http.StatusCreated, jsonBody(s.info(sess))

	case wire.OpCheckpoint:
		sess := s.session(session)
		if sess == nil {
			return http.StatusNotFound, errorBody(errUnknownSession(session))
		}
		state, st, err := s.freezeSession(sess)
		if err != nil {
			return uint16(st), errorBody(err)
		}
		return http.StatusOK, jsonBody(checkpointResponse{Session: sess.id, State: state})

	case wire.OpDelete:
		if !s.deleteSession(session) {
			return http.StatusNotFound, errorBody(errUnknownSession(session))
		}
		return http.StatusNoContent, nil

	case wire.OpInfo:
		sess := s.session(session)
		if sess == nil {
			return http.StatusNotFound, errorBody(errUnknownSession(session))
		}
		return http.StatusOK, jsonBody(s.info(sess))

	case wire.OpMetrics, wire.OpList:
		q, err := parseControlQuery(body)
		if err != nil {
			return http.StatusBadRequest, errorBody(err)
		}
		if op == wire.OpList {
			return http.StatusOK, jsonBody(s.listPage(q))
		}
		m, _ := s.metrics(q.Top)
		return http.StatusOK, jsonBody(m)

	case wire.OpHealth:
		return http.StatusOK, jsonBody(s.health())

	case wire.OpTrace:
		return s.traceSpans(body)

	case wire.OpMembers:
		if len(body) == 0 {
			return http.StatusOK, jsonBody(s.membersTable())
		}
		var msg wire.Members
		if err := json.Unmarshal(body, &msg); err != nil {
			return http.StatusBadRequest, errorBody(err)
		}
		return s.installMembers(msg)

	default:
		return http.StatusBadRequest, errorBody(errf("unknown control op 0x%02x", op))
	}
}

// callControl runs one control op for either plane: the connection
// worker's barrier and every HTTP route call it. A panicking op answers
// 500 naming the op, where it would otherwise kill the process (the
// binary plane) or drop the connection unanswered (HTTP).
func callControl(b connBackend, log *slog.Logger, op byte, session string, body []byte) (status uint16, resp []byte) {
	defer func() {
		if p := recover(); p != nil {
			log.Error("control op panicked", "op", op, "session", session, "panic", p)
			status, resp = http.StatusInternalServerError, errorBody(errf("control op 0x%02x panicked: %v", op, p))
		}
	}()
	return b.control(op, session, body)
}

func jsonBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Every body type here marshals by construction; reaching this is
		// a programming error worth failing loudly over.
		panic("serve: encoding control response: " + err.Error())
	}
	return b
}

func errorBody(err error) []byte {
	b, _ := json.Marshal(map[string]string{"error": err.Error()})
	return b
}
