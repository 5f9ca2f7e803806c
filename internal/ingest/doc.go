// Package ingest is the streaming estimation pipeline: it consumes capture
// events from live feeds (the NetFlow collector, active probing) or from a
// recorded pcap, maintains each of N sliding windows' capture-pattern
// histogram incrementally (ipset.MaskHist: one O(1) cell move per novel
// event, so tick cost is independent of window contents), and
// re-estimates the used population N̂ per window on a fixed cadence —
// dirty windows concurrently, warm-starting each window's IRLS fit from
// its own previous tick. Windows rotate by wall clock or, with
// Config.RotateEvery, by accepted-event count. The package tests shadow
// every accepted event into per-window sets and check each tick's
// histograms against core.TableFromSets, the set-fold oracle.
//
// All behaviour is driven by a logical event clock — the high-water
// event timestamp — never by the system clock, so replaying a capture
// yields a bit-identical tick series every run while live deployments
// simply feed the wall clock through Pipeline.Advance. Windows are
// half-open [start, start+Window) and aligned to multiples of Window since
// the Unix epoch; rotation retires the oldest window by clearing its ring
// slot, never by rescanning survivors. Ticks fan out synchronously to
// Config.OnTick (replay output) and asynchronously to Subscribe channels
// (the /v1/watch SSE endpoint), encoded by Tick.Encode under the
// ghosts.watch/v1 schema.
//
// See STREAMING.md at the repository root for the architecture
// walk-through and the SSE event contract.
package ingest
