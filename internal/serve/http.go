package serve

import (
	"encoding/json"
	"net/http"
	"strconv"

	"qgov/internal/wire"
)

// This file is the HTTP front of both tiers: one mux over connBackend,
// the interface the binary listener already drives. A flat Server and a
// Router therefore answer every HTTP route with the code their binary
// connections run — control ops through control, JSON decide batches
// through decideBatch (head sampling, slow-batch capture and misroute
// forwarding included) — and the two planes differ only in framing.

// maxBodyBytes bounds any request body (calibration series and inline
// checkpoints are the big ones).
const maxBodyBytes = 32 << 20

// maxDecideBatch bounds one /v1/decide request (and one binary drain); a
// controller batching more clusters than this per tick should split the
// batch.
const maxDecideBatch = 4096

// maxTopSessions bounds ?top=K: per-session series are opt-in detail, and
// even opted in, the scrape must stay bounded whatever K the URL carries.
const maxTopSessions = 64

// Handler returns the flat server's HTTP API.
func (s *Server) Handler() http.Handler { return newHTTPHandler(s) }

// Handler returns the router's HTTP API: the same surface a flat server
// exposes, so existing clients point at the router unchanged.
func (rt *Router) Handler() http.Handler { return newHTTPHandler(rt) }

func newHTTPHandler(b connBackend) http.Handler {
	ctl := func(op byte) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			status, body := b.control(op, r.PathValue("id"), nil)
			writeControlResult(w, status, body)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var req createRequest
		if !decodeBody(w, r, &req) {
			return
		}
		status, body := b.control(wire.OpCreate, req.ID, jsonBody(req))
		writeControlResult(w, status, body)
	})
	mux.HandleFunc("POST /v1/decide", func(w http.ResponseWriter, r *http.Request) {
		serveDecide(b, w, r)
	})
	mux.HandleFunc("GET /v1/sessions/{id}", ctl(wire.OpInfo))
	mux.HandleFunc("DELETE /v1/sessions/{id}", ctl(wire.OpDelete))
	mux.HandleFunc("POST /v1/sessions/{id}/checkpoint", ctl(wire.OpCheckpoint))
	mux.HandleFunc("GET /v1/members", ctl(wire.OpMembers))
	mux.HandleFunc("GET /healthz", ctl(wire.OpHealth))
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		if !wantsPrometheus(r) {
			status, body := b.control(wire.OpMetrics, "", nil)
			writeControlResult(w, status, body)
			return
		}
		m, err := b.metrics()
		if err != nil {
			writeError(w, http.StatusBadGateway, err)
			return
		}
		w.Header().Set("Content-Type", prometheusContentType)
		writePrometheus(w, m, topSessions(r))
	})
	mux.HandleFunc("GET /v1/trace", func(w http.ResponseWriter, r *http.Request) {
		q, err := traceQueryFromRequest(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		status, body := b.control(wire.OpTrace, "", jsonBody(q))
		writeControlResult(w, status, body)
	})
	return mux
}

// serveDecide answers a JSON decide batch: one observation per
// controlled session in, one operating-point decision each out. The
// entries become binary-path requests and decide through the backend's
// decideBatch, so entries fail independently exactly as binary frames do,
// and several observations for one session apply in arrival order.
func serveDecide(b connBackend, w http.ResponseWriter, r *http.Request) {
	var req decideRequest
	if !decodeBody(w, r, &req) {
		return
	}
	n := len(req.Requests)
	if n == 0 {
		writeError(w, http.StatusBadRequest, errf("requests is empty"))
		return
	}
	if n > maxDecideBatch {
		writeError(w, http.StatusBadRequest, errf("batch of %d exceeds the %d-decision limit", n, maxDecideBatch))
		return
	}
	reqs := make([]observeReq, n)
	batch := make([]*observeReq, n)
	for i, item := range req.Requests {
		reqs[i].m.Session = []byte(item.Session)
		reqs[i].m.Obs = item.Obs.observation()
		batch[i] = &reqs[i]
	}
	b.decideBatch(batch)
	resp := decideResponse{Decisions: make([]decisionJSON, n)}
	for i, r := range batch {
		// Every failure path leaves oppIdx -1 and freqMHz 0.
		resp.Decisions[i] = decisionJSON{
			Session: req.Requests[i].Session,
			OPPIdx:  int(r.oppIdx),
			FreqMHz: int(r.freqMHz),
			Error:   r.errMsg,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// topSessions reads the Prometheus scrape's ?top=K knob: how many of the
// busiest sessions get per-session series. The default 0 keeps the
// exposition O(1) in session count.
func topSessions(r *http.Request) int {
	s := r.URL.Query().Get("top")
	if s == "" {
		return 0
	}
	k, err := strconv.Atoi(s)
	if err != nil || k < 0 {
		return 0
	}
	return min(k, maxTopSessions)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeControlResult relays a control result as an HTTP response; the
// two planes share status codes and bodies by construction.
func writeControlResult(w http.ResponseWriter, status uint16, body []byte) {
	if len(body) == 0 {
		w.WriteHeader(int(status))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(int(status))
	_, _ = w.Write(body)
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}
