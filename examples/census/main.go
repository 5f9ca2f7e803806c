// Census: run the packet-level ICMP and TCP-SYN census against a simulated
// Internet, then combine both probes with a passive log into a
// capture-recapture estimate for one /16.
//
// The prober builds real ICMP echo / TCP SYN packets (checksums and all),
// ships them over a UDP-loopback transport to a responder that models
// firewalls, rate limits, loss, RST-ing middleboxes and silent hosts, and
// classifies the responses by the paper's §4.4 rules. The same sweep then
// runs over the in-memory transport to show both transports agree.
//
//	go run ./examples/census
package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"ghosts/internal/core"
	"ghosts/internal/inet"
	"ghosts/internal/ipset"
	"ghosts/internal/ipv4"
	"ghosts/internal/probe"
	"ghosts/internal/sources"
	"ghosts/internal/universe"
	"ghosts/internal/windows"
)

func main() {
	u := universe.New(universe.TinyConfig(7))
	ws := windows.Paper()
	w := ws[len(ws)-1]
	at := func() time.Time { return w.End }

	// Sweep the /16 around the first used address.
	var target ipv4.Prefix
	u.UsedAt(w.End).Range(func(a ipv4.Addr) bool {
		target = ipv4.NewPrefix(a, 16)
		return false
	})
	truth := u.UsedInPrefix(target, w.End)
	fmt.Printf("Target %v: %d truly used addresses in %d /24s\n\n",
		target, truth.Len(), truth.Slash24Len())

	run := func(kind probe.Kind, transport inet.Transport, netEnd inet.Transport) *probe.Result {
		responder := inet.NewResponder(u, 0.01, 99)
		go inet.Serve(netEnd, responder, at)
		defer transport.Close()
		c := &probe.Census{
			Transport: transport,
			Src:       ipv4.MustParseAddr("192.0.2.1"),
			Kind:      kind,
			Start:     w.Start,
			End:       w.End,
			ID:        0xCAFE,
		}
		res, err := c.Run([]ipv4.Prefix{target})
		if err != nil {
			panic(err)
		}
		return res
	}

	// IPING over UDP loopback.
	pEnd, nEnd, err := inet.NewUDPPair()
	if err != nil {
		panic(err)
	}
	icmp := run(probe.ICMP, pEnd, nEnd)
	fmt.Printf("IPING (UDP transport):   sent %6d, observed %5d used, ignored %d responses\n",
		icmp.Sent, icmp.Observed.Len(), icmp.Ignored)

	// TPING over the in-memory transport.
	pEnd2, nEnd2 := inet.NewPair(2048)
	tcp := run(probe.TCP80, pEnd2, nEnd2)
	fmt.Printf("TPING (channel transport): sent %6d, observed %5d used, ignored %d RSTs etc.\n\n",
		tcp.Sent, tcp.Observed.Len(), tcp.Ignored)

	// A passive log for the third capture source.
	suite := sources.NewSuite(u, 123)
	web := suite.Collect(sources.WEB, w, nil).Addrs
	webHere := ipset.New()
	web.Range(func(a ipv4.Addr) bool {
		if target.Contains(a) {
			webHere.Add(a)
		}
		return a <= target.Last()
	})
	fmt.Printf("WEB log restricted to %v: %d addresses\n\n", target, webHere.Len())

	sets := []*ipset.Set{icmp.Observed, tcp.Observed, webHere}
	tb := core.TableFromSets(sets, []string{"IPING", "TPING", "WEB"})
	est := core.DefaultEstimator(float64(target.Size()))
	res, err := est.Run(context.Background(), tb, core.RunOptions{Interval: true})
	if err != nil {
		panic(err)
	}
	fmt.Printf("Observed by any source: %d\n", tb.Observed())
	fmt.Printf("CR estimate:            %.0f  [%.0f, %.0f]\n", res.N, res.Interval.Lo, res.Interval.Hi)
	fmt.Printf("Truth:                  %d\n", truth.Len())
	fmt.Printf("Heidemann 1.86 x ping:  %.0f\n", core.PingCorrection(int64(icmp.Observed.Len())))
	errCR := math.Abs(res.N - float64(truth.Len()))
	errObs := math.Abs(float64(tb.Observed()) - float64(truth.Len()))
	fmt.Printf("\n|error| CR %.0f vs observed-count %.0f\n", errCR, errObs)
}
