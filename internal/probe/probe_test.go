package probe

import (
	"bytes"
	"io"
	"testing"
	"time"

	"ghosts/internal/inet"
	"ghosts/internal/ipset"
	"ghosts/internal/ipv4"
	"ghosts/internal/pcap"
	"ghosts/internal/universe"
	"ghosts/internal/wire"
)

func censusEnd() time.Time { return time.Date(2014, 6, 30, 0, 0, 0, 0, time.UTC) }

// expectedICMP computes what a lossless ICMP census must observe in pfx.
func expectedICMP(u *universe.Universe, pfx ipv4.Prefix) *ipset.Set {
	want := ipset.New()
	u.UsedInPrefix(pfx, censusEnd()).Range(func(a ipv4.Addr) bool {
		if u.RespondsICMP(a) || u.RespondsUnreachable(a) {
			want.Add(a)
		}
		return true
	})
	return want
}

func expectedTCP(u *universe.Universe, pfx ipv4.Prefix) *ipset.Set {
	want := ipset.New()
	u.UsedInPrefix(pfx, censusEnd()).Range(func(a ipv4.Addr) bool {
		if u.FirewallRSTBlock(a) {
			return true // firewall RSTs are ignored by the prober
		}
		// SYN/ACK responders, plus hosts that reject the SYN with a
		// port-unreachable (counted per §4.4).
		if u.RespondsTCP80(a) || (!u.RespondsICMP(a) && u.RespondsUnreachable(a)) {
			want.Add(a)
		}
		return true
	})
	return want
}

// runCensus executes a census over a /18 of the universe's first
// allocation through an in-memory transport.
func runCensus(t *testing.T, kind Kind, loss float64) (*universe.Universe, ipv4.Prefix, *Result) {
	t.Helper()
	u := universe.New(universe.TinyConfig(4))
	// Anchor the census on a region that actually contains used hosts.
	var pfx ipv4.Prefix
	u.UsedAt(censusEnd()).Range(func(a ipv4.Addr) bool {
		pfx = ipv4.NewPrefix(a, 18)
		return false
	})
	if pfx.Size() == 1 {
		t.Fatal("no used addresses in universe")
	}
	r := inet.NewResponder(u, loss, 7)
	probeEnd, netEnd := inet.NewPair(1024)
	go inet.Serve(netEnd, r, censusEnd)
	defer probeEnd.Close()
	c := &Census{
		Transport: probeEnd,
		Src:       ipv4.MustParseAddr("192.0.2.1"),
		Kind:      kind,
		Start:     censusEnd().AddDate(0, -6, 0),
		End:       censusEnd(),
		ID:        0xBEEF,
	}
	res, err := c.Run([]ipv4.Prefix{pfx})
	if err != nil {
		t.Fatal(err)
	}
	return u, pfx, res
}

func TestICMPCensusMatchesGroundTruthModel(t *testing.T) {
	u, pfx, res := runCensus(t, ICMP, 0)
	want := expectedICMP(u, pfx)
	if res.Observed.Len() != want.Len() {
		t.Fatalf("observed %d, want %d", res.Observed.Len(), want.Len())
	}
	both := ipset.IntersectCount(want, res.Observed)
	if missing := want.Len() - both; missing != 0 {
		t.Fatalf("%d expected responders missed", missing)
	}
	if extra := res.Observed.Len() - both; extra != 0 {
		t.Fatalf("%d unexpected addresses observed", extra)
	}
	if res.Sent != int(pfx.Size()) {
		t.Fatalf("sent %d probes, want %d", res.Sent, pfx.Size())
	}
	if res.Observed.Len() == 0 {
		t.Fatal("census observed nothing; universe misconfigured")
	}
}

func TestTCPCensusIgnoresRSTs(t *testing.T) {
	u, pfx, res := runCensus(t, TCP80, 0)
	want := expectedTCP(u, pfx)
	if res.Observed.Len() != want.Len() {
		t.Fatalf("observed %d, want %d", res.Observed.Len(), want.Len())
	}
	if res.Ignored == 0 {
		t.Fatal("census should have ignored some RSTs")
	}
	// TPING sees fewer addresses than IPING overall (§4.1, Table 2).
	icmpWant := expectedICMP(u, pfx)
	if want.Len() >= icmpWant.Len() {
		t.Fatalf("TCP80 observed %d >= ICMP %d", want.Len(), icmpWant.Len())
	}
}

func TestCensusWithLossUndercounts(t *testing.T) {
	u, pfx, res := runCensus(t, ICMP, 0.5)
	want := expectedICMP(u, pfx)
	if res.Observed.Len() >= want.Len() {
		t.Fatalf("lossy census observed %d, expected fewer than %d", res.Observed.Len(), want.Len())
	}
	if res.Observed.Len() == 0 {
		t.Fatal("50%% loss should not kill everything")
	}
	// Everything observed must still be a genuine responder (loss cannot
	// create false positives).
	if extra := res.Observed.Len() - ipset.IntersectCount(res.Observed, want); extra != 0 {
		t.Fatalf("%d false positives under loss", extra)
	}
}

func TestClassify(t *testing.T) {
	srv := ipv4.MustParseAddr("10.0.0.5")
	prober := ipv4.MustParseAddr("192.0.2.1")
	echoReq := wire.EchoRequest(prober, srv, 42, 1)

	reply := wire.EchoReply(echoReq)
	if ok, a := Classify(reply, ICMP, 42); !ok || a != srv {
		t.Fatal("echo reply must classify as used")
	}
	if ok, _ := Classify(reply, ICMP, 43); ok {
		t.Fatal("mismatched ID must be ignored")
	}
	if ok, _ := Classify(reply, TCP80, 42); ok {
		t.Fatal("echo reply during TCP census must be ignored")
	}

	portUn := wire.ICMPError(srv, echoReq, wire.ICMPDestUnreachable, wire.CodePortUnreachable)
	if ok, a := Classify(portUn, ICMP, 42); !ok || a != srv {
		t.Fatal("port unreachable from target must count as used")
	}
	protoUn := wire.ICMPError(srv, echoReq, wire.ICMPDestUnreachable, wire.CodeProtoUnreachable)
	if ok, _ := Classify(protoUn, ICMP, 42); !ok {
		t.Fatal("protocol unreachable from target must count as used")
	}

	router := ipv4.MustParseAddr("10.0.0.1")
	hostUn := wire.ICMPError(router, echoReq, wire.ICMPDestUnreachable, wire.CodeHostUnreachable)
	if ok, _ := Classify(hostUn, ICMP, 42); ok {
		t.Fatal("host unreachable must be ignored (§4.4)")
	}
	// Port unreachable relayed by a router (src != quoted dst): ignored.
	relayed := wire.ICMPError(router, echoReq, wire.ICMPDestUnreachable, wire.CodePortUnreachable)
	if ok, _ := Classify(relayed, ICMP, 42); ok {
		t.Fatal("unreachable from a third party must be ignored")
	}
	ttl := wire.ICMPError(router, echoReq, wire.ICMPTimeExceeded, 0)
	if ok, _ := Classify(ttl, ICMP, 42); ok {
		t.Fatal("TTL exceeded must be ignored")
	}

	syn := wire.SYN(prober, srv, 40000, 80, 9)
	synack := wire.SYNACK(syn, 1)
	if ok, a := Classify(synack, TCP80, 0); !ok || a != srv {
		t.Fatal("SYN/ACK must classify as used")
	}
	rst := wire.RST(syn)
	if ok, _ := Classify(rst, TCP80, 0); ok {
		t.Fatal("RST must be ignored (§4.4)")
	}
}

func TestCensusNoTransport(t *testing.T) {
	c := &Census{}
	if _, err := c.Run(nil); err == nil {
		t.Fatal("census without transport should fail")
	}
}

func TestCensusEmptyTargets(t *testing.T) {
	probeEnd, _ := inet.NewPair(4)
	defer probeEnd.Close()
	c := &Census{Transport: probeEnd, Start: censusEnd(), End: censusEnd()}
	res, err := c.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 0 || res.Observed.Len() != 0 {
		t.Fatal("empty census should do nothing")
	}
}

func TestKindString(t *testing.T) {
	if ICMP.String() != "IPING" || TCP80.String() != "TPING" {
		t.Fatal("Kind stringer broken")
	}
}

func TestCensusPcapCapture(t *testing.T) {
	u := universe.New(universe.TinyConfig(4))
	var pfx ipv4.Prefix
	u.UsedAt(censusEnd()).Range(func(a ipv4.Addr) bool {
		pfx = ipv4.NewPrefix(a, 22)
		return false
	})
	r := inet.NewResponder(u, 0, 7)
	probeEnd, netEnd := inet.NewPair(1024)
	go inet.Serve(netEnd, r, censusEnd)
	defer probeEnd.Close()
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf)
	c := &Census{
		Transport: probeEnd,
		Src:       ipv4.MustParseAddr("192.0.2.1"),
		Kind:      ICMP,
		Start:     censusEnd().AddDate(0, -6, 0),
		End:       censusEnd(),
		ID:        1,
		Capture:   w,
	}
	res, err := c.Run([]ipv4.Prefix{pfx})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rd, err := pcap.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	probes, replies := 0, 0
	for {
		p, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		pkt, err := wire.Unmarshal(p.Data)
		if err != nil {
			t.Fatalf("captured packet does not decode: %v", err)
		}
		if pkt.ICMP != nil && pkt.ICMP.Type == wire.ICMPEchoRequest {
			probes++
		} else {
			replies++
		}
	}
	if probes != res.Sent {
		t.Fatalf("captured %d probes, sent %d", probes, res.Sent)
	}
	if replies != res.Replies {
		t.Fatalf("captured %d replies, received %d", replies, res.Replies)
	}
	if probes == 0 || replies == 0 {
		t.Fatal("capture is empty")
	}
}

// TestCensusObserveHook: every address the census classifies as used is
// also delivered to the Observe callback, stamped at the census end —
// the feed contract the streaming ingest pipeline relies on.
func TestCensusObserveHook(t *testing.T) {
	u := universe.New(universe.TinyConfig(4))
	var pfx ipv4.Prefix
	u.UsedAt(censusEnd()).Range(func(a ipv4.Addr) bool {
		pfx = ipv4.NewPrefix(a, 18)
		return false
	})
	r := inet.NewResponder(u, 0, 7)
	probeEnd, netEnd := inet.NewPair(1024)
	go inet.Serve(netEnd, r, censusEnd)
	defer probeEnd.Close()
	seen := ipset.New()
	var badStamp bool
	c := &Census{
		Transport: probeEnd,
		Src:       ipv4.MustParseAddr("192.0.2.1"),
		Kind:      ICMP,
		Start:     censusEnd().AddDate(0, -6, 0),
		End:       censusEnd(),
		ID:        0xBEEF,
		Observe: func(addr ipv4.Addr, at time.Time) {
			seen.Add(addr)
			if !at.Equal(censusEnd()) {
				badStamp = true
			}
		},
	}
	res, err := c.Run([]ipv4.Prefix{pfx})
	if err != nil {
		t.Fatal(err)
	}
	if badStamp {
		t.Fatal("Observe stamped off the census-end clock")
	}
	if res.Observed.Len() == 0 {
		t.Fatal("census observed nothing; universe misconfigured")
	}
	both := ipset.IntersectCount(res.Observed, seen)
	if d := res.Observed.Len() - both; d != 0 {
		t.Fatalf("%d observed addresses never reached the hook", d)
	}
	if d := seen.Len() - both; d != 0 {
		t.Fatalf("hook saw %d addresses the census did not count", d)
	}
}
