// Package trie implements a binary (radix-2) prefix trie over the IPv4
// space.
//
// The trie serves two roles in the pipeline:
//
//   - routed-space membership against simulated BGP tables
//     (internal/bgp);
//   - CIDR aggregation of prefix lists (weekly RouteViews snapshots are
//     unioned per time window, §4.4).
//
// The main entry points are the Trie methods Insert (with automatic
// sibling aggregation), Contains (membership) and Prefixes / Walk (the
// aggregated blocks). Complement and FreeBlockVector decompose the
// complement of a used-address set into maximal aligned free blocks, the
// x_i vector of the unused-space model (§7.1); they are the reference that
// unused.FreeVector's tests check it against. The zero value is an empty
// trie ready for use.
package trie
