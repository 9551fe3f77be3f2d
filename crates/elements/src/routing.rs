//! Longest-prefix-match IP routing tables.
//!
//! The substrate for `StaticIPLookup`/`LookupIPRoute`. Two engines with
//! identical semantics:
//!
//! * [`IpTrie`] — the original one-bit-per-level binary trie, kept as
//!   the reference implementation and for small tables.
//! * [`MultibitTrie`] — a Poptrie/DXR-style compressed multibit trie: a
//!   16-bit direct-index root stride followed by popcount-compressed
//!   6/6/4-bit strides with flat `Vec`-backed node and leaf arrays, so
//!   a full-BGP-sized table answers a lookup in at most four indexed
//!   loads. Insert/remove/update are incremental (chunk-local), so a
//!   live million-route table survives a hot swap without a rebuild.

use std::collections::HashMap;

/// A binary trie mapping IPv4 prefixes to values.
#[derive(Debug, Clone)]
pub struct IpTrie<T> {
    nodes: Vec<Node<T>>,
}

#[derive(Debug, Clone)]
struct Node<T> {
    children: [Option<u32>; 2],
    value: Option<T>,
}

impl<T> Default for IpTrie<T> {
    fn default() -> Self {
        IpTrie {
            nodes: vec![Node {
                children: [None, None],
                value: None,
            }],
        }
    }
}

impl<T> IpTrie<T> {
    /// Creates an empty table.
    pub fn new() -> IpTrie<T> {
        IpTrie::default()
    }

    /// Inserts a prefix of `plen` bits. Replaces any existing value for
    /// the exact same prefix and returns the old value.
    ///
    /// # Panics
    ///
    /// Panics if `plen > 32`.
    pub fn insert(&mut self, addr: u32, plen: u8, value: T) -> Option<T> {
        assert!(plen <= 32, "prefix length must be at most 32");
        let mut cur = 0usize;
        for i in 0..plen {
            let bit = ((addr >> (31 - i)) & 1) as usize;
            cur = match self.nodes[cur].children[bit] {
                Some(n) => n as usize,
                None => {
                    let n = self.nodes.len();
                    self.nodes.push(Node {
                        children: [None, None],
                        value: None,
                    });
                    self.nodes[cur].children[bit] = Some(n as u32);
                    n
                }
            };
        }
        self.nodes[cur].value.replace(value)
    }

    /// Longest-prefix-match lookup.
    pub fn lookup(&self, addr: u32) -> Option<&T> {
        let mut cur = 0usize;
        let mut best = self.nodes[0].value.as_ref();
        for i in 0..32 {
            let bit = ((addr >> (31 - i)) & 1) as usize;
            match self.nodes[cur].children[bit] {
                Some(n) => {
                    cur = n as usize;
                    if let Some(v) = &self.nodes[cur].value {
                        best = Some(v);
                    }
                }
                None => break,
            }
        }
        best
    }

    /// Exact-prefix lookup.
    pub fn get(&self, addr: u32, plen: u8) -> Option<&T> {
        let mut cur = 0usize;
        for i in 0..plen {
            let bit = ((addr >> (31 - i)) & 1) as usize;
            cur = self.nodes[cur].children[bit].map(|n| n as usize)?;
        }
        self.nodes[cur].value.as_ref()
    }

    /// Removes an exact prefix, returning its value. Interior nodes are
    /// left in place (they are tiny and may be reused by reinserts).
    pub fn remove(&mut self, addr: u32, plen: u8) -> Option<T> {
        let mut cur = 0usize;
        for i in 0..plen {
            let bit = ((addr >> (31 - i)) & 1) as usize;
            cur = self.nodes[cur].children[bit].map(|n| n as usize)?;
        }
        self.nodes[cur].value.take()
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.nodes.iter().filter(|n| n.value.is_some()).count()
    }

    /// True if no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Sentinel for "no value / no node" in the packed arrays.
const NONE: u32 = u32::MAX;

/// Stride plan over the low 16 bits: `(shift, width)` per level. The
/// top 16 bits are consumed by the direct-index root, the rest by at
/// most three popcount-compressed strides (6 + 6 + 4 = 16).
const LEVELS: [(u32, u32); 3] = [(10, 6), (4, 6), (0, 4)];

/// Addresses [`MultibitTrie::lookup_batch`] walks together. Enough lanes
/// that their misses fill what the core can keep in flight; few enough
/// that zeroing the per-lane stack arrays costs a batch of one next to
/// nothing (at 64 lanes it cost such a batch about a fifth more than
/// the scalar lookup).
pub(crate) const LANES: usize = 32;

fn mask_addr(addr: u32, plen: u8) -> u32 {
    if plen == 0 {
        0
    } else {
        addr & (u32::MAX << (32 - u32::from(plen)))
    }
}

/// One entry of the 2^16-slot direct-index root: the leaf-pushed best
/// short-prefix value (`plen <= 16`) plus the root of the chunk's
/// subtree of longer prefixes, if any.
#[derive(Debug, Clone, Copy)]
struct RootSlot {
    leaf: u32,
    child: u32,
    leaf_plen: u8,
}

const EMPTY_SLOT: RootSlot = RootSlot {
    leaf: NONE,
    child: NONE,
    leaf_plen: 0,
};

/// A popcount-compressed interior node: two 64-bit occupancy bitmaps
/// and base offsets into the shared [`MultibitTrie::pool`] where the
/// node's leaf values and child indices are stored contiguously.
#[derive(Debug, Clone, Copy)]
struct PackedNode {
    child_bm: u64,
    leaf_bm: u64,
    base_children: u32,
    base_leaves: u32,
}

/// A Poptrie/DXR-style compressed multibit trie over IPv4 prefixes.
///
/// Layout: a 65 536-slot direct-index array covers the top 16 address
/// bits; each slot carries the leaf-pushed longest short prefix
/// (`plen <= 16`) covering it and, when the chunk holds longer
/// prefixes, the root of a subtree of packed nodes with 6-, 6- and
/// 4-bit strides. Per-node leaf/child arrays live contiguously in one
/// shared pool, so a lookup is a root load plus at most three
/// bitmap-popcount hops regardless of table size.
///
/// Those hops depend on each other: root slot, node, pool, node, pool,
/// value. On a table too big for the cache, most of them miss, and
/// [`MultibitTrie::lookup`] waits for each in turn.
/// [`MultibitTrie::lookup_batch`] answers a batch of addresses with the
/// same per-level step, but level by level across the batch (all root
/// slots, then each stride for the lanes still descending, then the
/// values), so the misses of different addresses are in flight together.
///
/// A whole table is built at once by [`MultibitTrie::from_prefixes`]:
/// one sort of the long prefixes, then each chunk's subtree built once.
/// Mutation after that is incremental: a short-prefix insert or remove
/// repaints only the root slots it covers; a long-prefix insert or
/// remove rebuilds only its own chunk's subtree (a handful of nodes)
/// with the same builder. Replacing the value of an existing prefix is
/// O(1) — the value arena is updated in place and no nodes move. Freed
/// nodes and pool ranges are recycled, with the pool compacted when
/// over half garbage.
#[derive(Debug, Clone)]
pub struct MultibitTrie<T> {
    root: Vec<RootSlot>,
    nodes: Vec<PackedNode>,
    /// Shared storage for per-node leaf-value and child-index ranges.
    pool: Vec<u32>,
    /// Value arena; one slot per stored prefix.
    values: Vec<Option<T>>,
    free_values: Vec<u32>,
    free_nodes: Vec<u32>,
    pool_garbage: usize,
    /// Authoritative store for prefixes with `plen <= 16`:
    /// prefix -> (value index, plen).
    short: IpTrie<(u32, u8)>,
    /// Authoritative store for prefixes with `plen > 16`, keyed by the
    /// top-16-bit chunk they live in; each list sorted by `(addr, plen)`.
    long: HashMap<u16, Vec<LongEntry>>,
    count: usize,
}

#[derive(Debug, Clone, Copy)]
struct LongEntry {
    addr: u32,
    plen: u8,
    validx: u32,
}

impl LongEntry {
    fn key(&self) -> (u32, u8) {
        (self.addr, self.plen)
    }
}

impl<T> Default for MultibitTrie<T> {
    fn default() -> Self {
        MultibitTrie {
            root: vec![EMPTY_SLOT; 1 << 16],
            nodes: Vec::new(),
            pool: Vec::new(),
            values: Vec::new(),
            free_values: Vec::new(),
            free_nodes: Vec::new(),
            pool_garbage: 0,
            short: IpTrie::new(),
            long: HashMap::new(),
            count: 0,
        }
    }
}

impl<T> MultibitTrie<T> {
    /// Creates an empty table.
    pub fn new() -> MultibitTrie<T> {
        MultibitTrie::default()
    }

    /// Builds a table from `(addr, plen, value)` routes in one go. Later
    /// duplicates of an exact prefix win, as with [`MultibitTrie::insert`],
    /// and the result answers every query as the in-order insert loop
    /// would; but the long prefixes are sorted once and each chunk's
    /// subtree is built once, so no storage is freed or compacted.
    ///
    /// # Panics
    ///
    /// Panics if a `plen > 32`.
    pub fn from_prefixes(routes: impl IntoIterator<Item = (u32, u8, T)>) -> MultibitTrie<T> {
        let mut t = MultibitTrie::new();
        let mut long: Vec<LongEntry> = Vec::new();
        for (addr, plen, value) in routes {
            assert!(plen <= 32, "prefix length must be at most 32");
            let addr = mask_addr(addr, plen);
            if plen <= 16 {
                t.insert_short(addr, plen, value);
            } else {
                let validx = place(&mut t.values, &mut t.free_values, Some(value));
                long.push(LongEntry { addr, plen, validx });
            }
        }
        // Stable, so of exact duplicates the last one sorts last and is
        // the one kept; the earlier values are freed.
        long.sort_by_key(LongEntry::key);
        long.dedup_by(|later, kept| {
            if later.key() != kept.key() {
                return false;
            }
            t.values[kept.validx as usize] = None;
            t.free_values.push(kept.validx);
            kept.validx = later.validx;
            true
        });
        t.count += long.len();
        for list in long.chunk_by(|a, b| a.addr >> 16 == b.addr >> 16) {
            let chunk = (list[0].addr >> 16) as u16;
            t.root[chunk as usize].child =
                build_sorted(&mut t.nodes, &mut t.pool, &mut t.free_nodes, list, 0);
            t.long.insert(chunk, list.to_vec());
        }
        t
    }

    /// Inserts a prefix of `plen` bits. Replaces any existing value for
    /// the exact same prefix and returns the old value. Replacement is
    /// O(1); a fresh insert touches only the root slots or the one
    /// chunk subtree the prefix lives in.
    ///
    /// # Panics
    ///
    /// Panics if `plen > 32`.
    pub fn insert(&mut self, addr: u32, plen: u8, value: T) -> Option<T> {
        assert!(plen <= 32, "prefix length must be at most 32");
        let addr = mask_addr(addr, plen);
        if plen <= 16 {
            self.insert_short(addr, plen, value)
        } else {
            self.insert_long(addr, plen, value)
        }
    }

    fn insert_short(&mut self, addr: u32, plen: u8, value: T) -> Option<T> {
        if let Some(&(vi, _)) = self.short.get(addr, plen) {
            return self.values[vi as usize].replace(value);
        }
        let vi = place(&mut self.values, &mut self.free_values, Some(value));
        self.short.insert(addr, plen, (vi, plen));
        self.count += 1;
        // Leaf-push: paint every root slot this prefix covers, unless a
        // longer short prefix already owns the slot. Two distinct short
        // prefixes of equal length never cover the same slot.
        let start = (addr >> 16) as usize;
        for slot in &mut self.root[start..start + (1usize << (16 - plen))] {
            if slot.leaf == NONE || slot.leaf_plen < plen {
                slot.leaf = vi;
                slot.leaf_plen = plen;
            }
        }
        None
    }

    fn insert_long(&mut self, addr: u32, plen: u8, value: T) -> Option<T> {
        let chunk = (addr >> 16) as u16;
        let list = self.long.entry(chunk).or_default();
        let pos = match list.binary_search_by_key(&(addr, plen), LongEntry::key) {
            // In-place value update: no structure moves.
            Ok(pos) => return self.values[list[pos].validx as usize].replace(value),
            Err(pos) => pos,
        };
        let validx = place(&mut self.values, &mut self.free_values, Some(value));
        list.insert(pos, LongEntry { addr, plen, validx });
        self.count += 1;
        self.rebuild_chunk(chunk);
        None
    }

    /// Removes an exact prefix, returning its value. Touches only the
    /// root slots or the one chunk subtree the prefix lives in.
    pub fn remove(&mut self, addr: u32, plen: u8) -> Option<T> {
        assert!(plen <= 32, "prefix length must be at most 32");
        let addr = mask_addr(addr, plen);
        if plen <= 16 {
            let (vi, _) = self.short.remove(addr, plen)?;
            let old = self.values[vi as usize].take();
            self.free_values.push(vi);
            self.count -= 1;
            // Repaint the covered slots that the removed prefix owned
            // with the next-longest short prefix covering them.
            let start = (addr >> 16) as usize;
            for s in start..start + (1usize << (16 - plen)) {
                if self.root[s].leaf != vi {
                    continue;
                }
                let (leaf, leaf_plen) = match self.short.lookup((s as u32) << 16) {
                    Some(&(v, p)) => (v, p),
                    None => (NONE, 0),
                };
                self.root[s].leaf = leaf;
                self.root[s].leaf_plen = leaf_plen;
            }
            old
        } else {
            let chunk = (addr >> 16) as u16;
            let list = self.long.get_mut(&chunk)?;
            let pos = list
                .binary_search_by_key(&(addr, plen), LongEntry::key)
                .ok()?;
            let entry = list.remove(pos);
            if list.is_empty() {
                self.long.remove(&chunk);
            }
            let old = self.values[entry.validx as usize].take();
            self.free_values.push(entry.validx);
            self.count -= 1;
            self.rebuild_chunk(chunk);
            old
        }
    }

    /// Longest-prefix-match lookup.
    pub fn lookup(&self, addr: u32) -> Option<&T> {
        self.lookup_steps(addr).0
    }

    /// Longest-prefix-match lookup that also reports how many interior
    /// stride nodes were visited (0–3); the cost model charges lookups
    /// by this depth.
    pub fn lookup_steps(&self, addr: u32) -> (Option<&T>, usize) {
        let slot = self.root[(addr >> 16) as usize];
        let mut best = slot.leaf;
        let mut node = slot.child;
        let mut steps = 0usize;
        if node != NONE {
            for level in 0..LEVELS.len() {
                steps += 1;
                node = self.step(level, node, addr, &mut best);
                if node == NONE {
                    break;
                }
            }
        }
        (self.value(best), steps)
    }

    /// Longest-prefix-match lookup of every address in `addrs`, into
    /// `out[i]` for `addrs[i]`: the answers of [`MultibitTrie::lookup`],
    /// found level by level. Each block of `LANES` (32) addresses first
    /// reads all its root slots, then runs each stride level across the
    /// lanes still descending, then loads the values, so the cache
    /// misses of different addresses overlap instead of forming one
    /// dependent chain per lookup.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than `addrs`.
    pub fn lookup_batch<'a>(&'a self, addrs: &[u32], out: &mut [Option<&'a T>]) {
        let out = &mut out[..addrs.len()];
        for (addrs, out) in addrs.chunks(LANES).zip(out.chunks_mut(LANES)) {
            let (mut best, mut node) = ([NONE; LANES], [NONE; LANES]);
            // Indices of the lanes still descending, compacted per level.
            let (mut live, mut nlive) = ([0u8; LANES], 0);
            for (k, &addr) in addrs.iter().enumerate() {
                let slot = self.root[(addr >> 16) as usize];
                best[k] = slot.leaf;
                node[k] = slot.child;
                live[nlive] = k as u8;
                nlive += usize::from(slot.child != NONE);
            }
            for level in 0..LEVELS.len() {
                let mut next = 0;
                for j in 0..nlive {
                    let k = usize::from(live[j]);
                    node[k] = self.step(level, node[k], addrs[k], &mut best[k]);
                    if node[k] != NONE {
                        live[next] = k as u8;
                        next += 1;
                    }
                }
                nlive = next;
            }
            for (o, &b) in out.iter_mut().zip(&best) {
                *o = self.value(b);
            }
        }
    }

    /// One stride step of a lookup: at `level`, ranks `addr`'s slot of
    /// `node`, records the slot's leaf (if any) in `best`, and returns
    /// the child to descend to, or `NONE` where the walk ends.
    #[inline(always)]
    fn step(&self, level: usize, node: u32, addr: u32, best: &mut u32) -> u32 {
        let (shift, width) = LEVELS[level];
        let n = self.nodes[node as usize];
        let i = ((addr & 0xFFFF) >> shift) & ((1 << width) - 1);
        let bit = 1u64 << i;
        if n.leaf_bm & bit != 0 {
            let pos = (n.leaf_bm & (bit - 1)).count_ones() as usize;
            *best = self.pool[n.base_leaves as usize + pos];
        }
        if n.child_bm & bit != 0 {
            let pos = (n.child_bm & (bit - 1)).count_ones() as usize;
            self.pool[n.base_children as usize + pos]
        } else {
            NONE
        }
    }

    /// The value a walk ended on, if it found one.
    #[inline(always)]
    fn value(&self, best: u32) -> Option<&T> {
        if best == NONE {
            None
        } else {
            self.values[best as usize].as_ref()
        }
    }

    /// Exact-prefix lookup.
    pub fn get(&self, addr: u32, plen: u8) -> Option<&T> {
        let addr = mask_addr(addr, plen.min(32));
        if plen <= 16 {
            let &(vi, _) = self.short.get(addr, plen)?;
            self.values[vi as usize].as_ref()
        } else {
            let list = self.long.get(&((addr >> 16) as u16))?;
            let pos = list
                .binary_search_by_key(&(addr, plen), LongEntry::key)
                .ok()?;
            self.values[list[pos].validx as usize].as_ref()
        }
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Tears down and rebuilds the subtree for one 16-bit chunk from
    /// the chunk's authoritative long-prefix list. Old nodes and pool
    /// ranges go on free lists; the pool is compacted when over half
    /// garbage.
    fn rebuild_chunk(&mut self, chunk: u16) {
        let old = self.root[chunk as usize].child;
        if old != NONE {
            self.free_subtree(old);
        }
        self.root[chunk as usize].child = match self.long.get(&chunk) {
            Some(list) => build_sorted(
                &mut self.nodes,
                &mut self.pool,
                &mut self.free_nodes,
                list,
                0,
            ),
            None => NONE,
        };
        self.maybe_compact();
    }

    fn free_subtree(&mut self, idx: u32) {
        let mut stack = vec![idx];
        while let Some(i) = stack.pop() {
            let n = self.nodes[i as usize];
            let nc = n.child_bm.count_ones() as usize;
            self.pool_garbage += nc + n.leaf_bm.count_ones() as usize;
            for k in 0..nc {
                stack.push(self.pool[n.base_children as usize + k]);
            }
            self.free_nodes.push(i);
        }
    }

    fn maybe_compact(&mut self) {
        if self.pool.len() < 1024 || self.pool_garbage * 2 <= self.pool.len() {
            return;
        }
        let mut new_pool = Vec::with_capacity(self.pool.len() - self.pool_garbage);
        for s in 0..self.root.len() {
            let c = self.root[s].child;
            if c != NONE {
                self.compact_node(c, &mut new_pool);
            }
        }
        self.pool = new_pool;
        self.pool_garbage = 0;
    }

    fn compact_node(&mut self, idx: u32, new_pool: &mut Vec<u32>) {
        let n = self.nodes[idx as usize];
        let nl = n.leaf_bm.count_ones() as usize;
        let nc = n.child_bm.count_ones() as usize;
        let bl = new_pool.len() as u32;
        new_pool.extend_from_slice(&self.pool[n.base_leaves as usize..n.base_leaves as usize + nl]);
        let bc = new_pool.len() as u32;
        new_pool
            .extend_from_slice(&self.pool[n.base_children as usize..n.base_children as usize + nc]);
        self.nodes[idx as usize].base_leaves = bl;
        self.nodes[idx as usize].base_children = bc;
        for k in 0..nc {
            let child = new_pool[bc as usize + k];
            self.compact_node(child, new_pool);
        }
    }
}

/// Stores `item` in `arena`, in a slot from `free` if one is spare.
fn place<V>(arena: &mut Vec<V>, free: &mut Vec<u32>, item: V) -> u32 {
    if let Some(i) = free.pop() {
        arena[i as usize] = item;
        i
    } else {
        arena.push(item);
        (arena.len() - 1) as u32
    }
}

/// Builds the stride node at `level` (and its descendants) over
/// `entries`, which are sorted by `(addr, plen)` and share the address
/// bits above this level. Returns the node index.
///
/// One pass: entries of one slot are contiguous, so a slot's child is
/// built from that run; entries an ancestor level resolved are in the
/// run but skipped. Sorted order puts every prefix before the longer
/// ones nested in it, so leaf-pushing by overwrite leaves each slot
/// with its longest covering prefix.
fn build_sorted(
    nodes: &mut Vec<PackedNode>,
    pool: &mut Vec<u32>,
    free_nodes: &mut Vec<u32>,
    entries: &[LongEntry],
    level: usize,
) -> u32 {
    let (shift, width) = LEVELS[level];
    // Bits of the low 16 resolved above this level, and once it resolves.
    let above = level.checked_sub(1).map_or(0, |l| 16 - LEVELS[l].0);
    let boundary = 16 - shift;
    let slot_of = |e: &LongEntry| (((e.addr & 0xFFFF) >> shift) & ((1 << width) - 1)) as usize;
    let (mut leaves, mut leaf_bm) = ([NONE; 64], 0u64);
    let (mut children, mut child_bm) = ([NONE; 64], 0u64);
    for run in entries.chunk_by(|a, b| slot_of(a) == slot_of(b)) {
        let slot = slot_of(&run[0]);
        let mut deeper = false;
        for e in run {
            let plen_low = u32::from(e.plen) - 16;
            if plen_low > boundary {
                deeper = true;
            } else if plen_low > above {
                let span = 1 << (boundary - plen_low);
                leaves[slot..slot + span].fill(e.validx);
                leaf_bm |= (u64::MAX >> (64 - span)) << slot;
            }
        }
        if deeper {
            children[slot] = build_sorted(nodes, pool, free_nodes, run, level + 1);
            child_bm |= 1 << slot;
        }
    }
    let mut pack = |slots: &[u32; 64], mut bm: u64| {
        let base = pool.len() as u32;
        while bm != 0 {
            pool.push(slots[bm.trailing_zeros() as usize]);
            bm &= bm - 1;
        }
        base
    };
    let base_leaves = pack(&leaves, leaf_bm);
    let base_children = pack(&children, child_bm);
    let node = PackedNode {
        child_bm,
        leaf_bm,
        base_children,
        base_leaves,
    };
    place(nodes, free_nodes, node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use click_elements_test_util::*;

    mod click_elements_test_util {
        pub fn ip(s: &str) -> u32 {
            click_core::config::parse_ipv4(s).unwrap()
        }
    }

    #[test]
    fn empty_trie_matches_nothing() {
        let t: IpTrie<u32> = IpTrie::new();
        assert_eq!(t.lookup(ip("1.2.3.4")), None);
        assert!(t.is_empty());
    }

    #[test]
    fn default_route_matches_everything() {
        let mut t = IpTrie::new();
        t.insert(0, 0, "default");
        assert_eq!(t.lookup(ip("1.2.3.4")), Some(&"default"));
        assert_eq!(t.lookup(ip("255.255.255.255")), Some(&"default"));
    }

    #[test]
    fn longest_prefix_wins() {
        let mut t = IpTrie::new();
        t.insert(0, 0, 0);
        t.insert(ip("10.0.0.0"), 8, 1);
        t.insert(ip("10.0.1.0"), 24, 2);
        t.insert(ip("10.0.1.7"), 32, 3);
        assert_eq!(t.lookup(ip("9.9.9.9")), Some(&0));
        assert_eq!(t.lookup(ip("10.7.7.7")), Some(&1));
        assert_eq!(t.lookup(ip("10.0.1.200")), Some(&2));
        assert_eq!(t.lookup(ip("10.0.1.7")), Some(&3));
    }

    #[test]
    fn insert_replaces_exact_prefix() {
        let mut t = IpTrie::new();
        assert_eq!(t.insert(ip("10.0.0.0"), 8, 1), None);
        assert_eq!(t.insert(ip("10.0.0.0"), 8, 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(ip("10.1.1.1")), Some(&2));
    }

    #[test]
    fn sibling_prefixes_do_not_interfere() {
        let mut t = IpTrie::new();
        t.insert(ip("10.0.0.0"), 9, "low");
        t.insert(ip("10.128.0.0"), 9, "high");
        assert_eq!(t.lookup(ip("10.1.0.0")), Some(&"low"));
        assert_eq!(t.lookup(ip("10.200.0.0")), Some(&"high"));
        assert_eq!(t.lookup(ip("11.0.0.0")), None);
    }

    #[test]
    fn exact_get() {
        let mut t = IpTrie::new();
        t.insert(ip("10.0.0.0"), 8, 1);
        assert_eq!(t.get(ip("10.0.0.0"), 8), Some(&1));
        assert_eq!(t.get(ip("10.0.0.0"), 9), None);
        assert_eq!(t.get(ip("10.0.0.0"), 7), None);
    }

    #[test]
    fn host_routes() {
        let mut t = IpTrie::new();
        for i in 0..32u32 {
            t.insert(0x0A000000 | i, 32, i);
        }
        assert_eq!(t.len(), 32);
        for i in 0..32u32 {
            assert_eq!(t.lookup(0x0A000000 | i), Some(&i));
        }
        assert_eq!(t.lookup(0x0A000040), None);
    }

    #[test]
    fn randomized_against_linear_scan() {
        // Deterministic pseudo-random prefixes; compare trie lookup with a
        // brute-force longest-match scan.
        let mut next = lcg(0x12345678);
        let mut t = IpTrie::new();
        let mut prefixes: Vec<(u32, u8, usize)> = Vec::new();
        for i in 0..200 {
            let plen = (next() % 33) as u8;
            let addr = if plen == 0 {
                0
            } else {
                next() & (u32::MAX << (32 - plen))
            };
            // Only record first-insert per exact prefix to mirror replace
            // semantics simply.
            if t.insert(addr, plen, i).is_none() {
                prefixes.push((addr, plen, i));
            } else {
                prefixes.retain(|&(a, l, _)| !(a == addr && l == plen));
                prefixes.push((addr, plen, i));
            }
        }
        for _ in 0..1000 {
            let q = next();
            let expected = prefixes
                .iter()
                .filter(|&&(a, l, _)| l == 0 || (q ^ a) >> (32 - l as u32) == 0)
                .max_by_key(|&&(_, l, _)| l)
                .map(|&(_, _, v)| v);
            assert_eq!(t.lookup(q).copied(), expected, "query {q:#x}");
        }
    }

    fn lcg(seed: u64) -> impl FnMut() -> u32 {
        let mut lcg = click_core::Lcg::new(seed);
        move || lcg.word()
    }

    /// Brute-force longest-prefix scan: the ground truth.
    fn linear_lpm(prefixes: &[(u32, u8, usize)], q: u32) -> Option<usize> {
        prefixes
            .iter()
            .filter(|&&(a, l, _)| l == 0 || (q ^ a) >> (32 - u32::from(l)) == 0)
            .max_by_key(|&&(_, l, _)| l)
            .map(|&(_, _, v)| v)
    }

    #[test]
    fn multibit_default_route_matches_everything() {
        let mut t = MultibitTrie::new();
        t.insert(0, 0, "default");
        assert_eq!(t.lookup(ip("1.2.3.4")), Some(&"default"));
        assert_eq!(t.lookup(ip("255.255.255.255")), Some(&"default"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn multibit_longest_prefix_wins_across_root_boundary() {
        let mut t = MultibitTrie::new();
        t.insert(0, 0, 0);
        t.insert(ip("10.0.0.0"), 8, 1);
        t.insert(ip("10.1.0.0"), 16, 2);
        t.insert(ip("10.1.2.0"), 24, 3);
        t.insert(ip("10.1.2.3"), 32, 4);
        assert_eq!(t.lookup(ip("9.9.9.9")), Some(&0));
        assert_eq!(t.lookup(ip("10.7.7.7")), Some(&1));
        assert_eq!(t.lookup(ip("10.1.200.200")), Some(&2));
        assert_eq!(t.lookup(ip("10.1.2.200")), Some(&3));
        assert_eq!(t.lookup(ip("10.1.2.3")), Some(&4));
    }

    #[test]
    fn multibit_insert_replaces_and_remove_restores() {
        let mut t = MultibitTrie::new();
        assert_eq!(t.insert(ip("10.0.0.0"), 8, 1), None);
        assert_eq!(t.insert(ip("10.0.0.0"), 8, 2), Some(1));
        assert_eq!(t.insert(ip("10.0.1.0"), 24, 3), None);
        assert_eq!(t.insert(ip("10.0.1.0"), 24, 4), Some(3));
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup(ip("10.0.1.9")), Some(&4));
        assert_eq!(t.remove(ip("10.0.1.0"), 24), Some(4));
        assert_eq!(t.lookup(ip("10.0.1.9")), Some(&2));
        assert_eq!(t.remove(ip("10.0.0.0"), 8), Some(2));
        assert_eq!(t.lookup(ip("10.0.1.9")), None);
        assert!(t.is_empty());
        assert_eq!(t.remove(ip("10.0.0.0"), 8), None);
    }

    #[test]
    fn multibit_exact_get_and_depth_bound() {
        let mut t = MultibitTrie::new();
        t.insert(ip("10.0.0.0"), 8, 1);
        t.insert(ip("10.0.0.0"), 28, 2);
        assert_eq!(t.get(ip("10.0.0.0"), 8), Some(&1));
        assert_eq!(t.get(ip("10.0.0.0"), 28), Some(&2));
        assert_eq!(t.get(ip("10.0.0.0"), 9), None);
        let (v, steps) = t.lookup_steps(ip("10.0.0.1"));
        assert_eq!(v, Some(&2));
        assert!(steps <= 3, "stride depth {steps} exceeds plan");
    }

    #[test]
    fn multibit_host_routes_at_chunk_edges() {
        let mut t = MultibitTrie::new();
        // /32s straddling a 16-bit chunk boundary.
        for i in 0..8u32 {
            t.insert(0x0A00FFFC + i, 32, i);
        }
        for i in 0..8u32 {
            assert_eq!(t.lookup(0x0A00FFFC + i), Some(&i));
        }
        assert_eq!(t.lookup(0x0A00FFFB), None);
        assert_eq!(t.lookup(0x0A010004), None);
    }

    /// Fuzz-style differential test (churn): LCG-generated prefix sets
    /// with overlaps, a /0 default, /32 hosts, and inserts interleaved
    /// with removes, checked address-by-address against a naive linear
    /// longest-prefix scan — for both the old and the new trie.
    #[test]
    fn differential_churn_old_and_multibit_vs_linear_scan() {
        churn(IpTrie::new(), MultibitTrie::new(), Vec::new());
    }

    /// The same churn from a bulk-built start: the authoritative stores
    /// `from_prefixes` fills must take incremental edits as the insert
    /// loop's do.
    #[test]
    fn differential_churn_after_bulk_build_vs_linear_scan() {
        let mut old = IpTrie::new();
        let mut model: Vec<(u32, u8, usize)> = Vec::new();
        for (i, (a, l)) in synthetic_bgp_prefixes(0xB01C, 400).into_iter().enumerate() {
            old.insert(a, l, 1000 + i);
            model.push((a, l, 1000 + i));
        }
        let multi = MultibitTrie::from_prefixes(model.iter().copied());
        churn(old, multi, model);
    }

    fn churn(
        mut old: IpTrie<usize>,
        mut multi: MultibitTrie<usize>,
        mut model: Vec<(u32, u8, usize)>,
    ) {
        let mut next = lcg(0xfeed_beef);
        for step in 0..600usize {
            let roll = next() % 10;
            if roll < 7 || model.is_empty() {
                // Insert, with plen biased toward interesting shapes.
                let plen = match next() % 8 {
                    0 => 0,
                    1 => 32,
                    2 => 16,
                    3 => 17,
                    _ => (next() % 33) as u8,
                };
                let addr = mask_addr(next(), plen);
                let o = old.insert(addr, plen, step);
                let m = multi.insert(addr, plen, step);
                assert_eq!(o, m, "insert {addr:#x}/{plen}");
                model.retain(|&(a, l, _)| !(a == addr && l == plen));
                model.push((addr, plen, step));
            } else {
                // Remove: usually an existing prefix, sometimes a miss.
                let (addr, plen) = if next().is_multiple_of(4) {
                    let plen = (next() % 33) as u8;
                    (mask_addr(next(), plen), plen)
                } else {
                    let &(a, l, _) = &model[(next() as usize) % model.len()];
                    (a, l)
                };
                let o = old.remove(addr, plen);
                let m = multi.remove(addr, plen);
                assert_eq!(o, m, "remove {addr:#x}/{plen}");
                model.retain(|&(a, l, _)| !(a == addr && l == plen));
            }
            assert_eq!(multi.len(), model.len(), "count after step {step}");
            if step % 40 != 0 {
                continue;
            }
            // Random probes plus targeted probes around stored prefixes.
            let mut probes: Vec<u32> = (0..200).map(|_| next()).collect();
            for &(a, l, _) in model.iter().take(40) {
                probes.push(a);
                probes.push(a.wrapping_add(1));
                probes.push(a.wrapping_sub(1));
                probes.push(a | !mask_addr(u32::MAX, l));
            }
            for q in probes {
                let want = linear_lpm(&model, q);
                assert_eq!(old.lookup(q).copied(), want, "old trie, query {q:#x}");
                assert_eq!(multi.lookup(q).copied(), want, "multibit, query {q:#x}");
            }
        }
    }

    #[test]
    fn multibit_dense_chunk_rebuild_recycles_storage() {
        // Hammer one chunk with inserts and removes; storage must not
        // grow without bound and lookups must stay correct.
        let mut t = MultibitTrie::new();
        let mut model: Vec<(u32, u8, usize)> = Vec::new();
        let mut next = lcg(42);
        for round in 0..40usize {
            for i in 0..32u32 {
                let plen = 17 + (next() % 16) as u8;
                let addr = mask_addr(0x0A0A0000 | (next() % 0x10000), plen);
                if t.insert(addr, plen, round * 100 + i as usize).is_some() {
                    model.retain(|&(a, l, _)| !(a == addr && l == plen));
                }
                model.push((addr, plen, round * 100 + i as usize));
            }
            while model.len() > 24 {
                let (a, l, v) = model.remove((next() as usize) % model.len());
                assert_eq!(t.remove(a, l), Some(v));
            }
            for _ in 0..64 {
                let q = 0x0A0A0000 | (next() % 0x10000);
                assert_eq!(t.lookup(q).copied(), linear_lpm(&model, q));
            }
        }
        // Bounded: a 24-entry table must not retain hundreds of nodes.
        assert!(
            t.nodes.len() - t.free_nodes.len() <= 4 * 24,
            "live nodes {} for {} prefixes",
            t.nodes.len() - t.free_nodes.len(),
            t.len()
        );
        assert!(
            t.pool.len() < 1 << 14,
            "pool grew without compaction: {}",
            t.pool.len()
        );
    }

    /// Batch lengths `lookup_batch` is checked at: empty, one, both sides
    /// of one block of lanes, and several blocks.
    const BATCH_LENS: [usize; 6] = [0, 1, 63, 64, 65, 200];

    /// Cuts `probes` into batches of every length in [`BATCH_LENS`] and
    /// checks each `lookup_batch` answer against `IpTrie::lookup`, the
    /// reference, and against the scalar walk. `out` is one longer than
    /// the batch, and its last slot must be left alone.
    fn assert_batches_match(reference: &IpTrie<usize>, t: &MultibitTrie<usize>, probes: &[u32]) {
        let untouched = usize::MAX;
        let check = |batch: &[u32]| {
            let mut out = vec![Some(&untouched); batch.len() + 1];
            t.lookup_batch(batch, &mut out);
            assert_eq!(
                out[batch.len()],
                Some(&untouched),
                "batch of {}",
                batch.len()
            );
            for (&q, &got) in batch.iter().zip(&out) {
                assert_eq!(got, reference.lookup(q), "batch of {}, {q:#x}", batch.len());
                assert_eq!(
                    got,
                    t.lookup(q),
                    "batch of {} vs scalar, {q:#x}",
                    batch.len()
                );
            }
        };
        for len in BATCH_LENS {
            if len == 0 {
                check(&[]);
            } else {
                probes.chunks(len).for_each(check);
            }
        }
    }

    /// Random addresses, plus for each of `prefixes` its first and last
    /// address, their outside neighbours, and a random host inside it.
    fn probes_for(next: &mut impl FnMut() -> u32, prefixes: &[(u32, u8, usize)]) -> Vec<u32> {
        let mut probes: Vec<u32> = (0..300).map(|_| next()).collect();
        for &(a, l, _) in prefixes {
            let top = a | !mask_addr(u32::MAX, l);
            probes.extend([a, a.wrapping_sub(1), top, top.wrapping_add(1)]);
            probes.push(a | (next() & !mask_addr(u32::MAX, l)));
        }
        probes
    }

    /// `lookup_batch` answers as the reference `IpTrie` does, at every
    /// batch length: on an empty table; on seeded tables of /0, /8 and
    /// /16 prefixes with /17–/32 prefixes nested inside them, so a batch
    /// mixes lanes that stop at the root and at each of the three
    /// stride levels; and after insert/remove storms in a few chunks,
    /// which rebuild chunk subtrees and compact the pool.
    #[test]
    fn lookup_batch_matches_reference() {
        for seed in [7u64, 0xBA7C, 0x5EED] {
            let mut lcg = click_core::Lcg::new(seed);
            let mut next = move || lcg.word();
            let empty = MultibitTrie::new();
            assert_batches_match(&IpTrie::new(), &empty, &probes_for(&mut next, &[]));

            // Layered: a default, /8s, /16s inside them, longer inside those.
            let mut model: Vec<(u32, u8, usize)> = vec![(0, 0, 0)];
            let eights: Vec<u32> = (0..6).map(|_| next() & 0xFF00_0000).collect();
            let sixteens: Vec<u32> = (0..12)
                .map(|_| eights[next() as usize % 6] | (next() & 0x00FF_0000))
                .collect();
            for &a in &eights {
                model.push((a, 8, model.len()));
            }
            for &a in &sixteens {
                model.push((a, 16, model.len()));
            }
            for _ in 0..600 {
                let plen = 17 + (next() % 16) as u8;
                let a = sixteens[next() as usize % sixteens.len()] | (next() & 0xFFFF);
                model.push((mask_addr(a, plen), plen, model.len()));
            }
            let mut reference = IpTrie::new();
            for &(a, l, v) in &model {
                reference.insert(a, l, v);
            }
            let mut t = MultibitTrie::from_prefixes(model.iter().copied());
            let deepest = probes_for(&mut next, &model)
                .into_iter()
                .map(|q| t.lookup_steps(q).1)
                .max();
            assert_eq!(
                deepest,
                Some(LEVELS.len()),
                "seed {seed}: no lane reaches the last level"
            );
            assert_batches_match(&reference, &t, &probes_for(&mut next, &model));

            // Storms: long-prefix churn in three chunks, short-prefix churn
            // across them, until the pool has been compacted.
            let chunks = [sixteens[0], sixteens[1], sixteens[2]];
            let mut compactions = 0;
            for step in 0..3000 {
                let garbage = t.pool_garbage;
                let plen = match next() % 8 {
                    0 => 8 + (next() % 9) as u8,
                    _ => 17 + (next() % 16) as u8,
                };
                let a = mask_addr(chunks[next() as usize % 3] | (next() & 0xFFFF), plen);
                if next() % 3 == 0 {
                    assert_eq!(
                        t.remove(a, plen),
                        reference.remove(a, plen),
                        "{a:#x}/{plen}"
                    );
                } else {
                    assert_eq!(
                        t.insert(a, plen, 10_000 + step),
                        reference.insert(a, plen, 10_000 + step)
                    );
                }
                compactions += usize::from(garbage > 0 && t.pool_garbage == 0);
                if step % 500 == 499 {
                    // Hosts all over the churned chunks, beside the model's.
                    let mut probed = model.clone();
                    probed.extend(chunks.iter().cycle().take(300).map(|&c| (c, 16, 0)));
                    assert_batches_match(&reference, &t, &probes_for(&mut next, &probed));
                }
            }
            assert!(
                compactions > 0,
                "seed {seed}: the storms never compacted the pool"
            );
        }
    }

    /// `n` distinct synthetic-BGP prefixes: a default route, then a
    /// seeded mix skewed toward /24s the way public tables are (55% /24,
    /// 20% /20-/23, 15% /16-/19, 5% /8-/15, 5% /25-/32).
    fn synthetic_bgp_prefixes(seed: u64, n: usize) -> Vec<(u32, u8)> {
        let mut next = lcg(seed);
        let mut seen = std::collections::HashSet::with_capacity(n * 2);
        let mut out = vec![(0u32, 0u8)];
        seen.insert((0u32, 0u8));
        while out.len() < n {
            let roll = next() % 100;
            let plen = if roll < 55 {
                24
            } else if roll < 75 {
                20 + next() % 4
            } else if roll < 90 {
                16 + next() % 4
            } else if roll < 95 {
                8 + next() % 8
            } else {
                25 + next() % 8
            } as u8;
            let addr = mask_addr(next(), plen);
            if seen.insert((addr, plen)) {
                out.push((addr, plen));
            }
        }
        out
    }

    /// `len` destinations drawn from a working set of `diversity` host
    /// addresses, each covered by one of `prefixes`.
    fn destination_stream(
        seed: u64,
        prefixes: &[(u32, u8)],
        diversity: usize,
        len: usize,
    ) -> Vec<u32> {
        let mut next = lcg(seed);
        let pool: Vec<u32> = (0..4 * diversity)
            .map(|_| {
                let (addr, plen) = prefixes[next() as usize % prefixes.len()];
                if plen >= 32 {
                    addr
                } else {
                    addr | (next() & (u32::MAX >> plen))
                }
            })
            .collect();
        let working: Vec<u32> = (0..diversity)
            .map(|_| pool[next() as usize % pool.len()])
            .collect();
        (0..len)
            .map(|_| working[next() as usize % diversity])
            .collect()
    }

    /// Bulk-builds the multibit trie over `n` synthetic-BGP prefixes and
    /// checks every lookup of a 4096-address, diversity-1024 stream
    /// against the stride plan's level bound and, when `against_old`,
    /// against the insert-built trie and the one-bit trie.
    fn check_synthetic_bgp(n: usize, against_old: bool) {
        // The root array consumes 16 address bits and the strides
        // 6 + 6 + 4 = 16 more: at most three interior nodes per lookup,
        // whatever the table size.
        const LEVEL_BOUND: usize = 3;
        let prefixes = synthetic_bgp_prefixes(0xB6_D0 + n as u64, n);
        let slash24 = prefixes.iter().filter(|&&(_, l)| l == 24).count();
        assert!(slash24 * 10 > n * 4, "{slash24} /24s in {n}: skew lost");
        let multi =
            MultibitTrie::from_prefixes(prefixes.iter().enumerate().map(|(i, &(a, l))| (a, l, i)));
        let mut inserted = MultibitTrie::new();
        let mut old = IpTrie::new();
        if against_old {
            for (i, &(addr, plen)) in prefixes.iter().enumerate() {
                inserted.insert(addr, plen, i);
                old.insert(addr, plen, i);
            }
        }
        assert_eq!(multi.len(), n, "prefixes are distinct");
        let stream = destination_stream(0xD1CE + n as u64, &prefixes, 1024, 4096);
        let mut batched = vec![None; stream.len()];
        multi.lookup_batch(&stream, &mut batched);
        for (&a, &hit) in stream.iter().zip(&batched) {
            assert_eq!(hit, multi.lookup(a), "batch vs scalar at {a:#x}");
        }
        let mut deepest = 0;
        for a in stream {
            let (hit, steps) = multi.lookup_steps(a);
            assert!(steps <= LEVEL_BOUND, "{a:#x}: {steps} levels");
            assert!(hit.is_some(), "{a:#x} misses the default route");
            if against_old {
                assert_eq!(
                    inserted.lookup_steps(a),
                    (hit, steps),
                    "bulk vs insert at {a:#x}"
                );
                assert_eq!(hit, old.lookup(a), "divergence at {a:#x}");
            }
            deepest = deepest.max(steps);
        }
        // The /25-/32 tail of the mix reaches the last stride, so the
        // bound above is exercised, not vacuous.
        assert_eq!(deepest, LEVEL_BOUND, "stream never reached the last level");
    }

    /// Synthetic-BGP prefixes (a `/0`, `/8`–`/32`) plus exact duplicates
    /// of a fifth of them with fresh values, short and long alike: the
    /// bulk build must answer like the in-order insert loop — lookups
    /// with their step counts, `get` and `len` — with the last duplicate
    /// winning.
    #[test]
    fn bulk_build_equals_in_order_insert() {
        for seed in [3u64, 0x5EED, 0xB6_D0] {
            let mut next = lcg(seed);
            let prefixes = synthetic_bgp_prefixes(seed, 2000);
            let mut routes: Vec<(u32, u8, usize)> = prefixes
                .iter()
                .enumerate()
                .map(|(i, &(a, l))| (a, l, i))
                .collect();
            for v in 0..400 {
                let (a, l) = prefixes[next() as usize % prefixes.len()];
                let at = next() as usize % (routes.len() + 1);
                routes.insert(at, (a | !mask_addr(u32::MAX, l), l, 10_000 + v));
            }
            let bulk = MultibitTrie::from_prefixes(routes.iter().copied());
            let mut inserted = MultibitTrie::new();
            for &(a, l, v) in &routes {
                inserted.insert(a, l, v);
            }
            assert_eq!(bulk.len(), prefixes.len(), "seed {seed}");
            assert_eq!(inserted.len(), prefixes.len(), "seed {seed}");
            let mut probes: Vec<u32> = (0..1024).map(|_| next()).collect();
            for &(a, l) in prefixes.iter().step_by(40) {
                let top = a | !mask_addr(u32::MAX, l);
                probes.extend([a, a.wrapping_sub(1), top, top.wrapping_add(1)]);
                probes.extend((0..60).map(|_| a ^ (next() & 0x1FF)));
            }
            assert!(probes.len() >= 4096);
            for q in probes {
                assert_eq!(bulk.lookup_steps(q), inserted.lookup_steps(q), "{q:#x}");
            }
            let key = |&(a, l, _): &(u32, u8, usize)| (mask_addr(a, l), l);
            for r in &routes {
                let last = routes.iter().rev().find(|s| key(s) == key(r));
                assert_eq!(bulk.get(r.0, r.1), last.map(|s| &s.2), "{r:?}");
                assert_eq!(bulk.get(r.0, r.1), inserted.get(r.0, r.1), "{r:?}");
            }
        }
    }

    /// The bulk build stores each chunk once: nothing on the free lists,
    /// no pool garbage, and a pool exactly as long as the live ranges.
    #[test]
    fn bulk_build_leaves_no_garbage() {
        let routes = synthetic_bgp_prefixes(0x6A7B, 20_000);
        let t = MultibitTrie::from_prefixes(routes.iter().map(|&(a, l)| (a, l, ())));
        assert!(t.free_nodes.is_empty());
        assert_eq!(t.pool_garbage, 0);
        let live: usize = t
            .nodes
            .iter()
            .map(|n| (n.leaf_bm.count_ones() + n.child_bm.count_ones()) as usize)
            .sum();
        assert_eq!(t.pool.len(), live);
        assert!(t.free_values.is_empty());
    }

    #[test]
    fn synthetic_bgp_100k_lookups_stay_within_level_bound_and_match_iptrie() {
        check_synthetic_bgp(100_000, true);
    }

    #[test]
    #[ignore = "1M prefixes: run with --release -- --ignored (CI tables-smoke)"]
    fn synthetic_bgp_1m_lookups_stay_within_level_bound() {
        check_synthetic_bgp(1_000_000, false);
    }

    #[test]
    fn iptrie_remove_returns_value_and_unshadows() {
        let mut t = IpTrie::new();
        t.insert(ip("10.0.0.0"), 8, 1);
        t.insert(ip("10.0.0.0"), 16, 2);
        assert_eq!(t.lookup(ip("10.0.9.9")), Some(&2));
        assert_eq!(t.remove(ip("10.0.0.0"), 16), Some(2));
        assert_eq!(t.lookup(ip("10.0.9.9")), Some(&1));
        assert_eq!(t.remove(ip("10.0.0.0"), 16), None);
        assert_eq!(t.remove(ip("11.0.0.0"), 8), None);
    }
}
