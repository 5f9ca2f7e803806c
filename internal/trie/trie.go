package trie

import (
	"ghosts/internal/ipv4"
)

type node struct {
	children [2]*node
	// covered marks that the entire subtree rooted here is in the set.
	// Covered nodes never have children (they are collapsed).
	covered bool
}

// Trie is a set of IPv4 prefixes, automatically aggregated: inserting both
// halves of a block collapses them into their parent. The zero value is an
// empty trie ready for use.
type Trie struct {
	root *node
}

// Insert adds prefix p to the trie, merging with and absorbing existing
// prefixes as needed.
func (t *Trie) Insert(p ipv4.Prefix) {
	if t.root == nil {
		t.root = &node{}
	}
	insert(t.root, p.Base, p.Bits, 0)
}

func insert(n *node, base ipv4.Addr, bits, depth int) (nowCovered bool) {
	if n.covered {
		return true
	}
	if depth == bits {
		n.covered = true
		n.children[0], n.children[1] = nil, nil
		return true
	}
	b := bit(base, depth)
	if n.children[b] == nil {
		n.children[b] = &node{}
	}
	if insert(n.children[b], base, bits, depth+1) {
		// Collapse when both halves are fully covered.
		sib := n.children[1-b]
		if sib != nil && sib.covered {
			n.covered = true
			n.children[0], n.children[1] = nil, nil
			return true
		}
	}
	return false
}

func bit(a ipv4.Addr, depth int) int {
	return int(uint32(a)>>(31-uint(depth))) & 1
}

// Contains reports whether address a is covered by some prefix in the trie.
func (t *Trie) Contains(a ipv4.Addr) bool {
	n := t.root
	for depth := 0; n != nil; depth++ {
		if n.covered {
			return true
		}
		if depth == 32 {
			return false
		}
		n = n.children[bit(a, depth)]
	}
	return false
}

// Prefixes returns the aggregated prefixes in ascending base order.
func (t *Trie) Prefixes() []ipv4.Prefix {
	var out []ipv4.Prefix
	t.Walk(func(p ipv4.Prefix) bool {
		out = append(out, p)
		return true
	})
	return out
}

// Walk visits every maximal covered prefix in ascending order until fn
// returns false.
func (t *Trie) Walk(fn func(ipv4.Prefix) bool) {
	if t.root == nil {
		return
	}
	walk(t.root, 0, 0, fn)
}

func walk(n *node, base uint32, depth int, fn func(ipv4.Prefix) bool) bool {
	if n.covered {
		return fn(ipv4.NewPrefix(ipv4.Addr(base), depth))
	}
	if n.children[0] != nil {
		if !walk(n.children[0], base, depth+1, fn) {
			return false
		}
	}
	if n.children[1] != nil {
		if !walk(n.children[1], base|1<<(31-uint(depth)), depth+1, fn) {
			return false
		}
	}
	return true
}

// Complement returns a trie covering exactly the addresses not covered by
// t, restricted to within. The unused-space model (§7.1) computes the free
// space as the complement of the used prefixes inside the usable space.
func (t *Trie) Complement(within ipv4.Prefix) *Trie {
	out := &Trie{}
	var rec func(n *node, p ipv4.Prefix)
	rec = func(n *node, p ipv4.Prefix) {
		if n == nil {
			out.Insert(p)
			return
		}
		if n.covered {
			return
		}
		if p.Bits == 32 {
			// Uncovered leaf at maximum depth: the address is free.
			out.Insert(p)
			return
		}
		lo, hi := p.Halves()
		rec(n.children[0], lo)
		rec(n.children[1], hi)
	}
	// Descend to the node corresponding to `within`.
	n := t.root
	for depth := 0; depth < within.Bits; depth++ {
		if n == nil {
			out.Insert(within)
			return out
		}
		if n.covered {
			return out
		}
		n = n.children[bit(within.Base, depth)]
	}
	rec(n, within)
	return out
}

// FreeBlockVector counts, for the complement of t inside within, the number
// of maximal free /i blocks for each i in [0, 32]. This is the x vector of
// the unused-space model: x[i] = number of maximal vacant /i blocks.
func (t *Trie) FreeBlockVector(within ipv4.Prefix) (x [33]int64) {
	comp := t.Complement(within)
	comp.Walk(func(p ipv4.Prefix) bool {
		x[p.Bits]++
		return true
	})
	return x
}
