package dataset

import (
	"sync"

	"ghosts/internal/bgp"
	"ghosts/internal/ipset"
	"ghosts/internal/sources"
	"ghosts/internal/spoof"
	"ghosts/internal/trie"
	"ghosts/internal/universe"
	"ghosts/internal/windows"
)

// Options configure bundle collection.
type Options struct {
	// SpoofFilter applies §4.5 to SWIN and CALT (the default pipeline).
	SpoofFilter bool
	// DropNetflow removes SWIN and CALT entirely (Figure 2's
	// "No_SWINCALT" series).
	DropNetflow bool
}

// DefaultOptions is the paper's main pipeline.
func DefaultOptions() Options { return Options{SpoofFilter: true} }

// Bundle is the assembled per-window dataset.
type Bundle struct {
	Window      windows.Window
	Routed      *trie.Trie
	RoutedAddrs uint64
	Routed24    uint64
	// Names and Sets are the post-preprocessing observations, parallel
	// slices in canonical source order (minus dropped sources).
	Names []sources.Name
	Sets  []*ipset.Set
	// SpoofStats reports the filter's work per NetFlow source (empty when
	// filtering was disabled).
	SpoofStats map[sources.Name]spoof.Stats

	// /24 projection, built once on first use: bundles are cached and
	// shared across experiments, several of which want the same /24 view.
	s24Once sync.Once
	s24     []*ipset.Set
}

// Raw is the pre-assembly collection product of one window: the routed
// table and every source's raw observations, before spoof filtering and
// source dropping. Collection is by far the expensive half of building a
// bundle and depends only on the window — not on SpoofFilter or
// DropNetflow — so experiment variants that differ only in preprocessing
// (Figure 2's spoofed/filtered/clean series) can collect once and
// Assemble three bundles from the same Raw.
type Raw struct {
	Window      windows.Window
	Routed      *trie.Trie
	RoutedAddrs uint64
	Routed24    uint64
	Obs         map[sources.Name]*ipset.Set
}

// CollectRaw gathers the raw per-source observations of every window in
// ws, in ws order, with one walk of the universe for all of them (see
// sources.Suite.CollectAll). Each window's sets are the same whatever
// windows are collected with it.
func CollectRaw(u *universe.Universe, suite *sources.Suite, ws []windows.Window) []*Raw {
	raws := make([]*Raw, len(ws))
	rts := make([]*trie.Trie, len(ws))
	for i, w := range ws {
		rts[i] = bgp.Aggregate(u, w, suite.Seed^0xb6b6)
		raws[i] = &Raw{Window: w, Routed: rts[i], Obs: make(map[sources.Name]*ipset.Set, 9)}
		raws[i].RoutedAddrs, raws[i].Routed24 = bgp.RoutedCounts(u, w)
	}
	for i, obs := range suite.CollectAll(ws, rts) {
		for _, o := range obs {
			raws[i].Obs[o.Name] = o.Addrs
		}
	}
	return raws
}

// Assemble applies the preprocessing options to the raw collection and
// builds the bundle. The raw sets are never mutated (the spoof filter
// clones before cleaning), so one Raw may be assembled under any number of
// option variants; the resulting bundles share unfiltered sets by
// reference and callers must treat them as read-only (they already must —
// bundles are cached and shared across experiments).
func (r *Raw) Assemble(u *universe.Universe, suite *sources.Suite, opt Options) *Bundle {
	b := &Bundle{
		Window:      r.Window,
		Routed:      r.Routed,
		RoutedAddrs: r.RoutedAddrs,
		Routed24:    r.Routed24,
		SpoofStats:  make(map[sources.Name]spoof.Stats),
	}
	obs := make(map[sources.Name]*ipset.Set, len(r.Obs))
	for n, s := range r.Obs {
		obs[n] = s
	}
	if opt.SpoofFilter && !opt.DropNetflow {
		spoofFree := ipset.New()
		for _, n := range []sources.Name{sources.WIKI, sources.WEB, sources.MLAB, sources.GAME} {
			spoofFree.AddSet(obs[n])
		}
		byteRef := spoofFree.Clone()
		for _, n := range []sources.Name{sources.SPAM, sources.IPING, sources.TPING} {
			byteRef.AddSet(obs[n])
		}
		f := spoof.New(spoofFree, byteRef, u.EmptyBlocks(), suite.Seed^0x5f5f)
		for _, n := range []sources.Name{sources.SWIN, sources.CALT} {
			clean, st := f.Clean(obs[n])
			obs[n] = clean
			b.SpoofStats[n] = st
		}
	}
	for _, n := range sources.All() {
		if opt.DropNetflow && (n == sources.SWIN || n == sources.CALT) {
			continue
		}
		if obs[n].Len() == 0 {
			continue // source not yet collecting in this window
		}
		b.Names = append(b.Names, n)
		b.Sets = append(b.Sets, obs[n])
	}
	return b
}

// Union returns the union of all observation sets.
func (b *Bundle) Union() *ipset.Set {
	out := ipset.New()
	for _, s := range b.Sets {
		out.AddSet(s)
	}
	return out
}

// Sets24 projects every source onto /24 subnets. The projection is
// computed once and cached; callers must treat the returned sets as
// read-only, like Sets itself.
func (b *Bundle) Sets24() []*ipset.Set {
	b.s24Once.Do(func() {
		b.s24 = make([]*ipset.Set, len(b.Sets))
		for i, s := range b.Sets {
			b.s24[i] = s.Slash24Set()
		}
	})
	return b.s24
}

// Source returns the observation set of a source, or nil if absent.
func (b *Bundle) Source(n sources.Name) *ipset.Set {
	for i, name := range b.Names {
		if name == n {
			return b.Sets[i]
		}
	}
	return nil
}

// NameStrings renders the source names (for core.Table labels).
func (b *Bundle) NameStrings() []string {
	out := make([]string, len(b.Names))
	for i, n := range b.Names {
		out[i] = string(n)
	}
	return out
}
