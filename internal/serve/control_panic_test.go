package serve

import (
	"bytes"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"qgov/internal/governor"
	"qgov/internal/serve/client"
	"qgov/internal/wire"
)

// panicBackend is a connBackend whose control panics on OpInfo and
// whose decides answer synchronously with a fixed operating point.
type panicBackend struct{}

func (panicBackend) startBatch(batch []*observeReq) <-chan struct{} {
	for _, r := range batch {
		r.oppIdx, r.freqMHz = 3, 1200
	}
	return answered
}

func (panicBackend) control(op byte, _ string, _ []byte) (uint16, []byte) {
	if op == wire.OpInfo {
		panic("boom")
	}
	return http.StatusOK, []byte(`{}`)
}

func (panicBackend) metrics(int) (metricsJSON, error) { return metricsJSON{}, nil }

// A control op that panics answers 500 naming the op on both planes,
// with the same body, and the binary connection keeps deciding after it.
func TestPanickingControlAnswers500OnBothPlanes(t *testing.T) {
	log := slog.New(slog.DiscardHandler)
	want := errorBody(errf("control op 0x%02x panicked: boom", wire.OpInfo))

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts := newTCPListener(panicBackend{}, lis, log, false)
	go func() { _ = ts.Serve() }()
	defer ts.Close()
	cl, err := client.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, body, err := cl.Control(wire.OpInfo, "s1", nil)
	if err != nil || st != http.StatusInternalServerError || !bytes.Equal(body, want) {
		t.Fatalf("binary OpInfo: status %d body %s err %v; want 500 %s", st, body, err, want)
	}
	if d, err := cl.Decide("s1", governor.Observation{Epoch: -1}); err != nil || d.OPPIdx != 3 || d.FreqMHz != 1200 {
		t.Fatalf("decide after the panic: %+v err %v", d, err)
	}

	hs := httptest.NewServer(newHTTPHandler(panicBackend{}, log))
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/v1/sessions/s1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusInternalServerError || !bytes.Equal(body, want) {
		t.Fatalf("HTTP info: status %d body %s err %v; want 500 %s", resp.StatusCode, body, err, want)
	}
}
