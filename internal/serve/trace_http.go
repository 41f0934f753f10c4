package serve

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"

	"qgov/internal/trace"
	"qgov/internal/wire"
)

// This file is the trace read side: the binary OpTrace, which GET
// /v1/trace on both tiers rides on (http.go). A replica serves its own span ring; the
// router serves its ring merged with every reachable replica's, so one
// query against the router returns the stitched router→replica(→forward)
// view of any sampled decide.

// traceQueryJSON is the OpTrace request body (and the query-string
// surface of GET /v1/trace): every field narrows the snapshot.
type traceQueryJSON struct {
	// MinUS keeps only spans at least this slow (microseconds).
	MinUS float64 `json:"min_us,omitempty"`
	// Session keeps only spans recorded for this session id.
	Session string `json:"session,omitempty"`
	// Trace keeps only spans under this 16-hex-digit trace id.
	Trace string `json:"trace,omitempty"`
	// Limit caps the answer at this many spans, newest first; 0 is all.
	Limit int `json:"limit,omitempty"`
}

// filter converts the wire shape into a trace.Filter.
func (q traceQueryJSON) filter() (trace.Filter, error) {
	f := trace.Filter{MinDurUS: q.MinUS, Session: q.Session, Limit: q.Limit}
	if q.Trace != "" {
		id, err := trace.ParseID(q.Trace)
		if err != nil {
			return trace.Filter{}, err
		}
		f.Trace = id
	}
	return f, nil
}

// parseTraceBody decodes an OpTrace body; empty means "everything".
func parseTraceBody(body []byte) (trace.Filter, error) {
	var q traceQueryJSON
	if len(body) > 0 {
		if err := json.Unmarshal(body, &q); err != nil {
			return trace.Filter{}, err
		}
	}
	return q.filter()
}

// traceQueryFromRequest reads the GET /v1/trace query string.
func traceQueryFromRequest(r *http.Request) (traceQueryJSON, error) {
	var q traceQueryJSON
	vals := r.URL.Query()
	if s := vals.Get("min_us"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return q, errf("bad min_us %q", s)
		}
		q.MinUS = v
	}
	q.Session = vals.Get("session")
	q.Trace = vals.Get("trace")
	if s := vals.Get("limit"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			return q, errf("bad limit %q", s)
		}
		q.Limit = v
	}
	return q, nil
}

// spansBody renders a span list as the OpTrace / /v1/trace body — always
// a JSON array, never null, so scripted consumers can range it blindly.
func spansBody(spans []trace.Span) []byte {
	if spans == nil {
		spans = []trace.Span{}
	}
	return jsonBody(spans)
}

// traceSpans answers OpTrace for a flat server / replica: its own ring.
func (s *Server) traceSpans(body []byte) (uint16, []byte) {
	f, err := parseTraceBody(body)
	if err != nil {
		return http.StatusBadRequest, errorBody(err)
	}
	return http.StatusOK, spansBody(s.tracer.Snapshot(f))
}

// aggregateTrace answers OpTrace on the router: its own ring (route and
// relay spans) merged with every reachable replica's, newest first, with
// the filter's limit re-applied to the merged set. Replicas record spans
// with an empty origin; each is stamped with the member address it came
// from, so the operator can always tell which server recorded what. A failed replica degrades the answer (its
// spans are missing) rather than failing it — same stance as metrics.
func (rt *Router) aggregateTrace(body []byte) (uint16, []byte) {
	f, err := parseTraceBody(body)
	if err != nil {
		return http.StatusBadRequest, errorBody(err)
	}
	all := rt.tracer.Snapshot(f)
	members, replies, errs := fleetCall[[]trace.Span](rt, wire.OpTrace, body)
	for i, spans := range replies {
		if errs[i] != nil {
			continue
		}
		for _, sp := range spans {
			if sp.Origin == "" {
				sp.Origin = members[i]
			}
			all = append(all, sp)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start > all[j].Start })
	if f.Limit > 0 && len(all) > f.Limit {
		all = all[:f.Limit]
	}
	return http.StatusOK, spansBody(all)
}
