package serve

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"strconv"

	"qgov/internal/wire"
)

// This file is the HTTP front of both tiers: one mux over connBackend,
// the interface the binary listener already drives. A flat Server and a
// Router therefore answer every HTTP route with the code their binary
// connections run — control ops through callControl, JSON decide
// batches through startBatch (head sampling, slow-batch capture and
// misroute forwarding included) — and the two planes differ only in
// framing.

// maxBodyBytes bounds any request body (calibration series and inline
// checkpoints are the big ones).
const maxBodyBytes = 32 << 20

// maxDecideBatch bounds one /v1/decide request (and one binary drain); a
// controller batching more clusters than this per tick should split the
// batch.
const maxDecideBatch = 4096

// maxTopSessions bounds ?top=K (both encodings): per-session entries are
// opt-in detail, and even opted in, the document must stay bounded
// whatever K the URL carries.
const maxTopSessions = 64

// Handler returns the flat server's HTTP API.
func (s *Server) Handler() http.Handler { return newHTTPHandler(s, s.log) }

// Handler returns the router's HTTP API: the same surface a flat server
// exposes, so existing clients point at the router unchanged.
func (rt *Router) Handler() http.Handler { return newHTTPHandler(rt, rt.log) }

func newHTTPHandler(b connBackend, log *slog.Logger) http.Handler {
	// reply answers a route with one control op's result; the two planes
	// share status codes and bodies by construction.
	reply := func(w http.ResponseWriter, op byte, session string, body []byte) {
		status, resp := callControl(b, log, op, session, body)
		if len(resp) > 0 {
			w.Header().Set("Content-Type", "application/json")
		}
		w.WriteHeader(int(status))
		_, _ = w.Write(resp)
	}
	ctl := func(op byte) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			reply(w, op, r.PathValue("id"), nil)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var req createRequest
		if !decodeBody(w, r, &req) {
			return
		}
		reply(w, wire.OpCreate, req.ID, jsonBody(req))
	})
	mux.HandleFunc("POST /v1/decide", func(w http.ResponseWriter, r *http.Request) {
		serveDecide(b, w, r)
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		reply(w, wire.OpList, "", jsonBody(urlQuery(r)))
	})
	mux.HandleFunc("GET /v1/sessions/{id}", ctl(wire.OpInfo))
	mux.HandleFunc("DELETE /v1/sessions/{id}", ctl(wire.OpDelete))
	mux.HandleFunc("POST /v1/sessions/{id}/checkpoint", ctl(wire.OpCheckpoint))
	mux.HandleFunc("GET /v1/members", ctl(wire.OpMembers))
	mux.HandleFunc("GET /healthz", ctl(wire.OpHealth))
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		q := urlQuery(r)
		if !wantsPrometheus(r) {
			reply(w, wire.OpMetrics, "", jsonBody(q))
			return
		}
		m, err := b.metrics(q.Top)
		if err != nil {
			writeError(w, http.StatusBadGateway, err)
			return
		}
		w.Header().Set("Content-Type", prometheusContentType)
		writePrometheus(w, m)
	})
	mux.HandleFunc("GET /v1/trace", func(w http.ResponseWriter, r *http.Request) {
		q, err := traceQueryFromRequest(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		reply(w, wire.OpTrace, "", jsonBody(q))
	})
	return mux
}

// serveDecide answers a JSON decide batch: one observation per
// controlled session in, one operating-point decision each out. The
// entries become binary-path requests and decide through the backend's
// startBatch, so entries fail independently exactly as binary frames do,
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
	<-b.startBatch(batch)
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

// urlQuery reads the metrics and list knobs off the URL: ?top=K (how
// many of the busiest learning sessions the metrics document lists; the
// default 0 keeps it fixed-size) and ?after=&limit= (a page of the
// session list). A missing or malformed number reads as 0, the default;
// the query comes back normalised, as parseControlQuery's does.
func urlQuery(r *http.Request) controlQuery {
	v := r.URL.Query()
	top, _ := strconv.Atoi(v.Get("top"))
	limit, _ := strconv.Atoi(v.Get("limit"))
	return controlQuery{Top: top, After: v.Get("after"), Limit: limit}.normalized()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}
