package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"ghosts/internal/serve"
	"ghosts/internal/telemetry"
)

// This file is the HTTP edge both ghostsd fronts share — the worker
// Server here and the fleet Router in internal/fleet: the per-route
// middleware, the JSON error envelope, strict request decoding, the
// liveness probe and the listen/serve/drain loop. Each is declared once so
// a client sees the same error bytes, telemetry and shutdown behaviour
// whichever front it reaches.

// maxBodyBytes caps request bodies: a 16-source capture-history table is
// 65536 cells, comfortably under 4 MiB of JSON.
const maxBodyBytes = 4 << 20

// Instrument wraps a handler with the request counter, latency histogram,
// per-route phase emission (http.<route>) — and the outermost panic
// barrier: a panic that escapes a handler (or the response encoder) is
// recovered, counted, logged to log and converted into a 500 error
// envelope when the response has not started, so one bad request cannot
// take the process down.
func Instrument(log io.Writer, route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if rv := recover(); rv != nil {
				telemetry.Active().PanicRecovered()
				fmt.Fprintf(log, "ghostsd: panic in %s handler: %v\n", route, rv)
				sw.status = http.StatusInternalServerError
				if !sw.wrote {
					WriteError(sw, http.StatusInternalServerError, "internal_panic",
						"internal error (recovered panic): %v", rv)
				}
			}
			telemetry.Active().HTTPDone(route, time.Since(t0), sw.status >= 400)
		}()
		h(sw, r)
	}
}

type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool // response started; headers can no longer change
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the wrapped writer so streaming handlers (/v1/watch
// SSE) can push frames through the instrument layer.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// errorEnvelope is the uniform error body.
type errorEnvelope struct {
	API   string    `json:"api"`
	Kind  string    `json:"kind"` // always "error"
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// WriteError answers with the uniform error envelope: status, a stable
// machine-readable code and a formatted message.
func WriteError(w http.ResponseWriter, status int, code, format string, args ...any) {
	WriteJSON(w, status, errorEnvelope{
		API:   serve.APIVersion,
		Kind:  "error",
		Error: errorBody{Code: code, Message: fmt.Sprintf(format, args...)},
	})
}

// WriteJSON answers with v as indented JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// DecodeJSON reads the request body (at most maxBodyBytes) and strictly
// decodes it into v: unknown fields and any data after the JSON value are
// rejected. It returns the raw body bytes — the fleet router relays them
// verbatim — or, on failure, answers 400 invalid_json and returns ok=false.
func DecodeJSON(w http.ResponseWriter, r *http.Request, v any) (raw []byte, ok bool) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		err = dec.Decode(v)
		if err == nil {
			if _, terr := dec.Token(); terr != io.EOF {
				err = errors.New("unexpected data after JSON body")
			}
		}
	}
	if err != nil {
		WriteError(w, http.StatusBadRequest, "invalid_json", "decoding request: %v", err)
		return nil, false
	}
	return raw, true
}

// Healthz reports liveness: the process is up.
func Healthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// Edge is the lifecycle of one ghostsd HTTP front: it publishes the bound
// address, holds the readiness flag /readyz reports, and runs the
// listen/serve/drain loop.
type Edge struct {
	role  string // "" for a worker, "router " for the fleet router
	log   io.Writer
	drain time.Duration
	ready atomic.Bool
	addr  atomic.Value // string; set once Serve is listening
}

// NewEdge returns a ready edge that writes lifecycle lines to log
// (default os.Stderr) and drains within drain (default 30s). role names
// the front in the shutdown lines: "" for a worker, "router " for the
// fleet router.
func NewEdge(role string, log io.Writer, drain time.Duration) *Edge {
	if log == nil {
		log = os.Stderr
	}
	if drain <= 0 {
		drain = 30 * time.Second
	}
	e := &Edge{role: role, log: log, drain: drain}
	e.ready.Store(true)
	return e
}

// Addr returns the bound listen address once Serve is listening ("" before).
// With "-addr :0" this is how callers learn the picked port.
func (e *Edge) Addr() string {
	if v := e.addr.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// Ready reports whether the front accepts traffic (false once draining).
func (e *Edge) Ready() bool { return e.ready.Load() }

// SetReady flips the readiness flag.
func (e *Edge) SetReady(ready bool) { e.ready.Store(ready) }

// Serve listens on addr and serves h until ctx is cancelled, then shuts
// down gracefully: readiness goes false so load balancers and the fleet
// prober stop routing, beforeShutdown (when non-nil) runs with a context
// bounded by the drain budget while the listener is still open, and
// in-flight requests get the rest of that budget to finish. note trails
// the "listening on http://…" banner, which scripts parse for the bound
// address. A clean shutdown returns nil.
func (e *Edge) Serve(ctx context.Context, addr string, h http.Handler, note string, beforeShutdown func(context.Context)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	e.addr.Store(ln.Addr().String())
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return ctx },
	}
	fmt.Fprintf(e.log, "ghostsd: listening on http://%s%s\n", ln.Addr(), note)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(e.log, "ghostsd: %sshutting down (draining for up to %v)\n", e.role, e.drain)
	e.ready.Store(false)
	shutCtx, cancel := context.WithTimeout(context.Background(), e.drain)
	defer cancel()
	if beforeShutdown != nil {
		beforeShutdown(shutCtx)
	}
	err = hs.Shutdown(shutCtx)
	fmt.Fprintf(e.log, "ghostsd: %sshutdown complete\n", e.role)
	return err
}
