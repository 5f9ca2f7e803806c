package server

import (
	"bytes"
	"fmt"
	"net/http"

	"ghosts/internal/ingest"
	"ghosts/internal/telemetry"
)

// handleWatch is GET /v1/watch: a server-sent-event stream of estimation
// ticks from the streaming ingest pipeline. Each tick becomes one SSE
// frame
//
//	event: tick
//	id: <seq>
//	data: <ghosts.watch/v1 JSON>
//
// where the data line is exactly the tick's canonical encoding
// (ingest.Tick.Encode minus its trailing newline), so an SSE consumer and
// `ghosts -replay -json` see byte-identical JSON for the same pipeline
// state. On subscribe the most recent tick is replayed first — a client
// never waits a full cadence interval to learn the current estimate. The
// stream ends when the client disconnects or the server shuts down.
//
// With ?delta=true each subsequent frame carries only the windows whose
// figures changed since the frame this subscriber last received
// (ingest.DeltaTick): the subscribe-time replay is always a full tick, a
// rotation forces a full resync, and a tick that changed nothing is
// suppressed entirely — the next frame's id then jumps, which SSE clients
// already tolerate because slow consumers shed ticks.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	if s.watch == nil {
		WriteError(w, http.StatusNotFound, "watch_disabled",
			"no streaming pipeline configured (start ghostsd with a live feed)")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, "sse_unsupported",
			"response writer cannot stream")
		return
	}
	delta := false
	switch r.URL.Query().Get("delta") {
	case "1", "true":
		delta = true
	}
	// Subscribe before replaying the last tick: a tick landing in between
	// is buffered on the channel rather than lost, and the seq guard below
	// keeps it from being sent twice.
	ch, cancel := s.watch.Subscribe()
	defer cancel()
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // tell buffering proxies to pass frames through
	w.WriteHeader(http.StatusOK)
	var lastSeq int64
	var prev *ingest.Tick // last full tick this subscriber saw (delta mode)
	if tk := s.watch.Last(); tk != nil {
		writeTickEvent(w, tk)
		fl.Flush()
		lastSeq = tk.Seq
		prev = tk
	}
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case tk, ok := <-ch:
			if !ok {
				return
			}
			if tk.Seq <= lastSeq {
				continue
			}
			lastSeq = tk.Seq
			frame := tk
			if delta {
				frame = ingest.DeltaTick(prev, tk)
				prev = tk
				if frame == nil {
					continue // nothing changed: frame suppressed
				}
				if frame.Delta {
					telemetry.Active().WatchDeltaEmitted()
				}
			}
			writeTickEvent(w, frame)
			fl.Flush()
		}
	}
}

// writeTickEvent renders one SSE frame. Tick.Encode ends with a newline;
// SSE data lines must not embed one, so it is trimmed and the frame's own
// blank-line terminator closes the event.
func writeTickEvent(w http.ResponseWriter, tk *ingest.Tick) {
	data := bytes.TrimSuffix(tk.Encode(), []byte("\n"))
	fmt.Fprintf(w, "event: tick\nid: %d\ndata: %s\n\n", tk.Seq, data)
}
