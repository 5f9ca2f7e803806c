// Package probe implements the paper's census prober (§4.1): it sweeps
// target prefixes with ICMP echo requests (IPING) or TCP port-80 SYNs
// (TPING), traversing each prefix in reversed-bit-counting order so
// consecutive probes land in distant /24s, and classifies responses per
// §4.4 — echo replies and protocol/port unreachables from the target count
// as used; RSTs, TTL-exceeded and other ICMP errors are ignored.
//
// Probes are timestamped on a *simulated* clock spread across the census
// window (a real census takes months; §4.1 sends one packet per /24 every
// two hours on average), so the responder's rate limiting sees realistic
// spacing while wall-clock time stays bounded.
//
// The main entry point is Census — configure the Transport, probe Kind and
// window, then Run a sweep to collect the responding address set; Classify
// is the §4.4 response-classification rule on its own, the Capture field
// streams probe traffic to a pcap.Writer, and the Observe hook reports each
// used-classified address as a timestamped capture event (the active feed
// for the streaming ingest pipeline — internal/ingest, STREAMING.md).
package probe
