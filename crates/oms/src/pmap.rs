//! A persistent, structurally-shared ordered map over `u64`-like keys.
//!
//! [`PMap`] is the store's answer to the clone-the-world snapshot
//! problem: cloning one is a single [`Arc`] reference-count bump, and
//! every mutation *path-copies* only the handful of trie nodes between
//! the root and the touched key (via [`Arc::make_mut`]), leaving all
//! other nodes shared with previously taken clones. A snapshot of a
//! 50k-object database therefore costs O(1) to take and each write
//! after it costs O(height) node copies, not O(database).
//!
//! The layout is a radix trie over 5-bit digits of the key: every node
//! has 32 child positions, stored compressed as a `u32` occupancy
//! bitmap plus one `Arc`'d array of the occupied entries (an entry's
//! index is the popcount of the bitmap bits below its digit). A node's
//! header — bitmap and array handle — sits inline in its parent's
//! array, so each level costs one pointer chase, and bottom nodes hold
//! their values packed side by side. The trie's **height adapts to
//! the largest key ever inserted**: a map whose keys stay below 32^h is
//! h levels deep (three levels cover ids up to 32 767, four up to ~1M,
//! thirteen every `u64`). Inserting a key beyond the current reach
//! grows the trie at the top — the old root becomes child 0 of a new
//! root, still shared with any clone — so small maps and dense id
//! ranges never pay for the full 64-bit key width. Heights only grow;
//! removals prune empty nodes on the way back up.
//!
//! A write under a retained clone therefore copies at most `height`
//! arrays of at most 32 entries each (handles and values, never
//! subtrees). An entry added to or removed from a node rebuilds that
//! node's array; replacing a value in an unshared node writes in
//! place. Because the digit order of an unsigned integer is its
//! numeric order, in-order traversal yields keys ascending — the same
//! order a `BTreeMap` would give — which is what keeps the persisted
//! image format byte-identical to the pre-persistent store.
//!
//! The structure is hand-rolled on `std` only — no external
//! persistent-collection crates.

use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

/// A key that can be packed into a `u64` such that the numeric order
/// of the packed bits equals the key's own order.
///
/// Implemented by `u64` itself, by [`ObjectId`](crate::ObjectId) and by
/// the typed id wrappers of downstream crates; this is what lets one
/// trie implementation serve the object store and every coupling map.
pub trait PmapKey: Copy {
    /// Packs the key into its ordering-preserving bit representation.
    fn to_bits(self) -> u64;
    /// Rebuilds the key from bits produced by [`PmapKey::to_bits`].
    fn from_bits(bits: u64) -> Self;
}

impl PmapKey for u64 {
    fn to_bits(self) -> u64 {
        self
    }
    fn from_bits(bits: u64) -> Self {
        bits
    }
}

/// Key bits consumed per trie level (32-wide nodes).
const BITS: u32 = 5;
/// Height that reaches every `u64` key (13 × 5 = 65 ≥ 64 bits).
const MAX_HEIGHT: u32 = 13;

/// The smallest height (≥ 1) whose levels reach `bits`.
fn height_for(bits: u64) -> u32 {
    (u64::BITS - bits.leading_zeros()).div_ceil(BITS).max(1)
}

/// Returns `true` if a trie of `height` levels reaches `bits`.
fn reaches(height: u32, bits: u64) -> bool {
    height >= MAX_HEIGHT || bits >> (BITS * height) == 0
}

/// The child digit of `bits` in a node `level` levels above the bottom
/// (level 0 holds the values).
fn digit(bits: u64, level: u32) -> u32 {
    ((bits >> (BITS * level)) & 31) as u32
}

/// `Ok(index)` of digit `d` in a node's packed array, or `Err(index)`
/// where it would be inserted: the popcount of the lower bits.
fn position(bitmap: u32, d: u32) -> Result<usize, usize> {
    let bit = 1u32 << d;
    let index = (bitmap & (bit - 1)).count_ones() as usize;
    if bitmap & bit != 0 {
        Ok(index)
    } else {
        Err(index)
    }
}

/// A copy of `items` with `item` inserted at `index`.
fn inserted<T: Clone>(items: &[T], index: usize, item: T) -> Arc<[T]> {
    items[..index]
        .iter()
        .cloned()
        .chain(std::iter::once(item))
        .chain(items[index..].iter().cloned())
        .collect()
}

/// A copy of `items` without the entry at `index`.
fn removed<T: Clone>(items: &[T], index: usize) -> Arc<[T]> {
    items[..index]
        .iter()
        .chain(&items[index + 1..])
        .cloned()
        .collect()
}

/// A trie node. Its header (occupancy bitmap and array handle) lives
/// inline in the parent's array, so descending one level costs one
/// pointer chase. Nodes at level 0 are `Bottom`, all others `Inner`.
enum Node<V> {
    /// Child nodes, one per set bit of `bitmap`, in digit order.
    Inner {
        bitmap: u32,
        children: Arc<[Node<V>]>,
    },
    /// Values, one per set bit of `bitmap`, in digit order.
    Bottom { bitmap: u32, values: Arc<[V]> },
}

impl<V> Clone for Node<V> {
    /// Copies the header and bumps the array's reference count.
    fn clone(&self) -> Self {
        match self {
            Node::Inner { bitmap, children } => Node::Inner {
                bitmap: *bitmap,
                children: Arc::clone(children),
            },
            Node::Bottom { bitmap, values } => Node::Bottom {
                bitmap: *bitmap,
                values: Arc::clone(values),
            },
        }
    }
}

impl<V> Node<V> {
    /// An empty node for `level`.
    fn empty(level: u32) -> Self {
        if level == 0 {
            Node::Bottom {
                bitmap: 0,
                values: Arc::new([]),
            }
        } else {
            Node::Inner {
                bitmap: 0,
                children: Arc::new([]),
            }
        }
    }

    fn bitmap(&self) -> u32 {
        match self {
            Node::Inner { bitmap, .. } | Node::Bottom { bitmap, .. } => *bitmap,
        }
    }

    /// Returns `true` if both are the same allocation — an untouched
    /// subtree shared between two maps.
    fn same(&self, other: &Node<V>) -> bool {
        match (self, other) {
            (Node::Inner { children: a, .. }, Node::Inner { children: b, .. }) => Arc::ptr_eq(a, b),
            (Node::Bottom { values: a, .. }, Node::Bottom { values: b, .. }) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// The child at digit 0 of an inner node.
    fn low_child(&self) -> Option<&Node<V>> {
        match self {
            Node::Inner { bitmap, children } if bitmap & 1 != 0 => Some(&children[0]),
            _ => None,
        }
    }
}

/// A single-path node at `level` holding `value` under `bits`.
fn spine<V>(bits: u64, level: u32, value: V) -> Node<V> {
    let mut node = Node::Bottom {
        bitmap: 1 << digit(bits, 0),
        values: Arc::new([value]),
    };
    for l in 1..=level {
        node = Node::Inner {
            bitmap: 1 << digit(bits, l),
            children: Arc::new([node]),
        };
    }
    node
}

/// A persistent ordered map: O(1) clone, O(height) path-copying
/// writes, ordered iteration. See the [module docs](self) for the
/// design rationale.
pub struct PMap<K, V> {
    /// Behind an `Arc` of its own so that cloning the map is one
    /// reference-count bump with no branch on the node kind.
    root: Arc<Node<V>>,
    /// Levels from the root down to the values, ≥ 1.
    height: u32,
    len: usize,
    _key: PhantomData<K>,
}

impl<K, V> Clone for PMap<K, V> {
    /// Cloning is a reference-count bump on the root node — the two
    /// maps share every node until one of them writes.
    fn clone(&self) -> Self {
        PMap {
            root: Arc::clone(&self.root),
            height: self.height,
            len: self.len,
            _key: PhantomData,
        }
    }
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap::new()
    }
}

impl<K, V> PMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        PMap {
            root: Arc::new(Node::empty(0)),
            height: 1,
            len: 0,
            _key: PhantomData,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` if this map and `other` share their root node —
    /// i.e. one is an untouched clone of the other. Diagnostic hook
    /// for structural-sharing tests.
    pub fn root_shared_with(&self, other: &PMap<K, V>) -> bool {
        self.root.same(&other.root)
    }

    /// Raises the trie to `height` levels: each step makes the current
    /// root child 0 of a new root, so existing nodes stay shared.
    fn grow_to(&mut self, height: u32) {
        while self.height < height {
            self.root = Arc::new(if self.root.bitmap() == 0 {
                Node::empty(self.height)
            } else {
                Node::Inner {
                    bitmap: 1,
                    children: Arc::new([Node::clone(&self.root)]),
                }
            });
            self.height += 1;
        }
    }
}

impl<K: PmapKey, V> PMap<K, V> {
    /// Looks up a key.
    pub fn get(&self, key: &K) -> Option<&V> {
        let bits = key.to_bits();
        if !reaches(self.height, bits) {
            return None;
        }
        let mut node: &Node<V> = &self.root;
        let mut level = self.height - 1;
        loop {
            match node {
                Node::Inner { bitmap, children } => {
                    node = &children[position(*bitmap, digit(bits, level)).ok()?];
                    level -= 1;
                }
                Node::Bottom { bitmap, values } => {
                    return Some(&values[position(*bitmap, digit(bits, 0)).ok()?]);
                }
            }
        }
    }

    /// Returns `true` if `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Iterates entries in ascending key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter::new(&self.root)
    }

    /// Iterates keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.iter().map(|(_, v)| v)
    }
}

impl<K: PmapKey, V: Clone> PMap<K, V> {
    /// Inserts a value, returning the previous one if present. Only
    /// the nodes on the root→key path are copied; every untouched
    /// subtree stays shared with older clones.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let bits = key.to_bits();
        self.grow_to(height_for(bits));
        let old = insert_at(Arc::make_mut(&mut self.root), bits, self.height - 1, value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes a key, returning its value if present. Nodes left empty
    /// by the removal are pruned on the way back up; removing an
    /// absent key copies nothing.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        if !self.contains_key(key) {
            return None;
        }
        let old = remove_at(
            Arc::make_mut(&mut self.root),
            key.to_bits(),
            self.height - 1,
        );
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Mutable access to a value. This path-copies the spine down to
    /// the key even if the caller ends up not writing, so it belongs on
    /// mutation paths only.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let bits = key.to_bits();
        if !reaches(self.height, bits) {
            return None;
        }
        get_mut_at(Arc::make_mut(&mut self.root), bits, self.height - 1)
    }

    /// Mutable access to the value under `key`, inserting
    /// `default()` first when the key is absent — the persistent
    /// analogue of `BTreeMap::entry(k).or_insert_with(f)`.
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        if !self.contains_key(&key) {
            self.insert(key, default());
        }
        self.get_mut(&key).expect("just inserted")
    }
}

fn insert_at<V: Clone>(node: &mut Node<V>, bits: u64, level: u32, value: V) -> Option<V> {
    match node {
        Node::Bottom { bitmap, values } => {
            let d = digit(bits, 0);
            match position(*bitmap, d) {
                Ok(i) => Some(std::mem::replace(&mut Arc::make_mut(values)[i], value)),
                Err(i) => {
                    *values = inserted(values, i, value);
                    *bitmap |= 1 << d;
                    None
                }
            }
        }
        Node::Inner { bitmap, children } => {
            let d = digit(bits, level);
            match position(*bitmap, d) {
                Ok(i) => insert_at(&mut Arc::make_mut(children)[i], bits, level - 1, value),
                Err(i) => {
                    *children = inserted(children, i, spine(bits, level - 1, value));
                    *bitmap |= 1 << d;
                    None
                }
            }
        }
    }
}

fn remove_at<V: Clone>(node: &mut Node<V>, bits: u64, level: u32) -> Option<V> {
    match node {
        Node::Bottom { bitmap, values } => {
            let d = digit(bits, 0);
            let i = position(*bitmap, d).ok()?;
            let value = values[i].clone();
            *values = removed(values, i);
            *bitmap &= !(1 << d);
            Some(value)
        }
        Node::Inner { bitmap, children } => {
            let d = digit(bits, level);
            let i = position(*bitmap, d).ok()?;
            let child = &mut Arc::make_mut(children)[i];
            let value = remove_at(child, bits, level - 1)?;
            if child.bitmap() == 0 {
                *children = removed(children, i);
                *bitmap &= !(1 << d);
            }
            Some(value)
        }
    }
}

fn get_mut_at<V: Clone>(node: &mut Node<V>, bits: u64, level: u32) -> Option<&mut V> {
    match node {
        Node::Bottom { bitmap, values } => {
            let i = position(*bitmap, digit(bits, 0)).ok()?;
            Some(&mut Arc::make_mut(values)[i])
        }
        Node::Inner { bitmap, children } => {
            let i = position(*bitmap, digit(bits, level)).ok()?;
            get_mut_at(&mut Arc::make_mut(children)[i], bits, level - 1)
        }
    }
}

/// One record of a structural diff between two maps: the operation
/// that turns the base map's entry into the target map's entry. See
/// [`PMap::diff`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffEntry<K, V> {
    /// The key exists only in the target; value is the target's.
    Added(K, V),
    /// The key exists in both with unequal values; value is the
    /// target's.
    Updated(K, V),
    /// The key exists only in the base.
    Removed(K),
}

impl<K, V> DiffEntry<K, V> {
    /// The key this record is about.
    pub fn key(&self) -> &K {
        match self {
            DiffEntry::Added(k, _) | DiffEntry::Updated(k, _) | DiffEntry::Removed(k) => k,
        }
    }
}

impl<K: PmapKey, V: Clone + PartialEq> PMap<K, V> {
    /// Structural diff: the sorted sequence of [`DiffEntry`] records
    /// that turns `self` into `target`.
    ///
    /// The walk descends both tries in lockstep and **skips every
    /// subtree whose root [`Arc`] is shared between the two maps**
    /// (pointer equality), so when `target` is an evolved clone of
    /// `self` the cost is O(changes · height), not O(map). Two
    /// untouched clones diff to an empty vector in O(1) — the root
    /// pointers are equal. Maps of different heights diff correctly
    /// too: the shorter map lines up with child 0 of the taller one's
    /// top levels, which is exactly where growth left the old root, so
    /// a clone that grew still skips every subtree it shares. Records
    /// come out in ascending key order, which is what lets the
    /// persisted delta format stay canonical.
    ///
    /// Value comparison is by `PartialEq`; an entry whose value was
    /// rewritten to an equal value is *not* reported.
    pub fn diff(&self, target: &PMap<K, V>) -> Vec<DiffEntry<K, V>> {
        let mut out = Vec::new();
        diff_roots(
            &self.root,
            self.height,
            &target.root,
            target.height,
            &mut out,
        );
        out
    }

    /// Applies a diff produced by [`PMap::diff`], returning the
    /// resulting map: `base.apply_diff(&base.diff(&target)) == target`.
    pub fn apply_diff(&self, diff: &[DiffEntry<K, V>]) -> PMap<K, V> {
        let mut next = self.clone();
        for entry in diff {
            match entry {
                DiffEntry::Added(k, v) | DiffEntry::Updated(k, v) => {
                    next.insert(*k, v.clone());
                }
                DiffEntry::Removed(k) => {
                    next.remove(k);
                }
            }
        }
        next
    }
}

/// Diffs two roots of possibly different heights. While the heights
/// differ, the taller side's child 0 spans the shorter side's whole
/// key range (and the accumulated key prefix stays 0), so the walk
/// descends that child and reports every other child of the taller
/// side as wholly added or removed — after child 0, keeping the
/// output ascending.
fn diff_roots<K: PmapKey, V: Clone + PartialEq>(
    base: &Node<V>,
    base_height: u32,
    target: &Node<V>,
    target_height: u32,
    out: &mut Vec<DiffEntry<K, V>>,
) {
    if base_height == target_height {
        diff_nodes(base, target, 0, out);
        return;
    }
    let base_taller = base_height > target_height;
    let tall = if base_taller { base } else { target };
    match tall.low_child() {
        Some(low) if base_taller => diff_roots(low, base_height - 1, target, target_height, out),
        Some(low) => diff_roots(base, base_height, low, target_height - 1, out),
        None if base_taller => emit_node(target, 0, out, added),
        None => emit_node(base, 0, out, removed_entry),
    }
    if let Node::Inner { bitmap, children } = tall {
        let rest = Digits(*bitmap)
            .zip(children.iter())
            .filter(|(d, _)| *d != 0);
        for (d, child) in rest {
            if base_taller {
                emit_node(child, u64::from(d), out, removed_entry);
            } else {
                emit_node(child, u64::from(d), out, added);
            }
        }
    }
}

/// Merge-walks two sibling nodes at the same level. `prefix` holds the
/// key bits accumulated above them; digits are visited in ascending
/// order, so records come out in ascending key order.
fn diff_nodes<K: PmapKey, V: Clone + PartialEq>(
    base: &Node<V>,
    target: &Node<V>,
    prefix: u64,
    out: &mut Vec<DiffEntry<K, V>>,
) {
    // The load-bearing case: an untouched subtree is the *same
    // allocation* in both maps — skip it without descending.
    if base.same(target) {
        return;
    }
    match (base, target) {
        (
            Node::Inner {
                bitmap: ba,
                children: ca,
            },
            Node::Inner {
                bitmap: bb,
                children: cb,
            },
        ) => {
            for d in Digits(ba | bb) {
                let bits = (prefix << BITS) | u64::from(d);
                match (position(*ba, d), position(*bb, d)) {
                    (Ok(i), Ok(j)) => diff_nodes(&ca[i], &cb[j], bits, out),
                    (Ok(i), Err(_)) => emit_node(&ca[i], bits, out, removed_entry),
                    (Err(_), Ok(j)) => emit_node(&cb[j], bits, out, added),
                    (Err(_), Err(_)) => unreachable!("digit from the union"),
                }
            }
        }
        (
            Node::Bottom {
                bitmap: ba,
                values: va,
            },
            Node::Bottom {
                bitmap: bb,
                values: vb,
            },
        ) => {
            for d in Digits(ba | bb) {
                let key = K::from_bits((prefix << BITS) | u64::from(d));
                match (position(*ba, d), position(*bb, d)) {
                    (Ok(i), Ok(j)) => {
                        if va[i] != vb[j] {
                            out.push(DiffEntry::Updated(key, vb[j].clone()));
                        }
                    }
                    (Ok(_), Err(_)) => out.push(DiffEntry::Removed(key)),
                    (Err(_), Ok(j)) => out.push(DiffEntry::Added(key, vb[j].clone())),
                    (Err(_), Err(_)) => unreachable!("digit from the union"),
                }
            }
        }
        // Nodes of one level share a kind, so a mixed pair cannot arise
        // from map operations; stay total anyway by replacing the
        // subtree.
        _ => {
            emit_node(base, prefix, out, removed_entry);
            emit_node(target, prefix, out, added);
        }
    }
}

fn added<K, V: Clone>(key: K, value: &V) -> DiffEntry<K, V> {
    DiffEntry::Added(key, value.clone())
}

fn removed_entry<K, V>(key: K, _: &V) -> DiffEntry<K, V> {
    DiffEntry::Removed(key)
}

/// Emits `record(key, value)` for every value under `node`, whose
/// parents' digits are `prefix`.
fn emit_node<K: PmapKey, V>(
    node: &Node<V>,
    prefix: u64,
    out: &mut Vec<DiffEntry<K, V>>,
    record: fn(K, &V) -> DiffEntry<K, V>,
) {
    match node {
        Node::Inner { bitmap, children } => {
            for (d, child) in Digits(*bitmap).zip(children.iter()) {
                emit_node(child, (prefix << BITS) | u64::from(d), out, record);
            }
        }
        Node::Bottom { bitmap, values } => {
            for (d, v) in Digits(*bitmap).zip(values.iter()) {
                out.push(record(K::from_bits((prefix << BITS) | u64::from(d)), v));
            }
        }
    }
}

/// The set bits of an occupancy bitmap, ascending.
struct Digits(u32);

impl Iterator for Digits {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.0 == 0 {
            return None;
        }
        let d = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(d)
    }
}

/// A node's remaining entries during the walk, with the digits they
/// sit at and the key bits accumulated above the node.
struct Cursor<'a, T> {
    items: std::slice::Iter<'a, T>,
    digits: Digits,
    prefix: u64,
}

impl<'a, T> Cursor<'a, T> {
    fn new(bitmap: u32, items: &'a [T], prefix: u64) -> Self {
        Cursor {
            items: items.iter(),
            digits: Digits(bitmap),
            prefix,
        }
    }

    /// The next entry and its key bits.
    #[inline]
    fn next(&mut self) -> Option<(u64, &'a T)> {
        let item = self.items.next()?;
        let d = self.digits.next()?;
        Some(((self.prefix << BITS) | u64::from(d), item))
    }
}

/// Ordered iterator over a [`PMap`], yielding `(key, &value)`.
pub struct Iter<'a, K, V> {
    /// The bottom node being walked: the hot loop stays here.
    values: Cursor<'a, V>,
    /// The inner nodes above it, root first.
    stack: Vec<Cursor<'a, Node<V>>>,
    _key: PhantomData<K>,
}

impl<'a, K, V> Iter<'a, K, V> {
    fn new(root: &'a Node<V>) -> Self {
        let mut iter = Iter {
            values: Cursor::new(0, &[], 0),
            stack: Vec::new(),
            _key: PhantomData,
        };
        iter.enter(root, 0);
        iter
    }

    fn enter(&mut self, node: &'a Node<V>, prefix: u64) {
        match node {
            Node::Inner { bitmap, children } => {
                self.stack.push(Cursor::new(*bitmap, children, prefix))
            }
            Node::Bottom { bitmap, values } => self.values = Cursor::new(*bitmap, values, prefix),
        }
    }
}

impl<'a, K: PmapKey, V> Iter<'a, K, V> {
    /// The slow path of [`Iterator::next`]: the bottom node is
    /// exhausted, so walk the inner nodes to the next one.
    #[inline(never)]
    fn next_bottom(&mut self) -> Option<(K, &'a V)> {
        loop {
            let top = self.stack.last_mut()?;
            match top.next() {
                Some((bits, child)) => self.enter(child, bits),
                None => {
                    self.stack.pop();
                }
            }
            if let Some((bits, value)) = self.values.next() {
                return Some((K::from_bits(bits), value));
            }
        }
    }
}

impl<'a, K: PmapKey, V> Iterator for Iter<'a, K, V> {
    type Item = (K, &'a V);

    #[inline]
    fn next(&mut self) -> Option<(K, &'a V)> {
        match self.values.next() {
            Some((bits, value)) => Some((K::from_bits(bits), value)),
            None => self.next_bottom(),
        }
    }
}

impl<'a, K: PmapKey, V> IntoIterator for &'a PMap<K, V> {
    type Item = (K, &'a V);
    type IntoIter = Iter<'a, K, V>;

    fn into_iter(self) -> Iter<'a, K, V> {
        self.iter()
    }
}

impl<K: PmapKey, V: Clone> FromIterator<(K, V)> for PMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = PMap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

impl<K: PmapKey, V: Clone> Extend<(K, V)> for PMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

impl<K: PmapKey + fmt::Debug, V: fmt::Debug> fmt::Debug for PMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: PmapKey, V: PartialEq> PartialEq for PMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self
                .iter()
                .zip(other.iter())
                .all(|((ka, va), (kb, vb))| ka.to_bits() == kb.to_bits() && va == vb)
    }
}

impl<K: PmapKey, V: Eq> Eq for PMap<K, V> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: PMap<u64, String> = PMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(7, "seven".into()), None);
        assert_eq!(m.insert(7, "VII".into()), Some("seven".into()));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(&7).map(String::as_str), Some("VII"));
        assert!(!m.contains_key(&8));
        assert_eq!(m.remove(&7), Some("VII".into()));
        assert_eq!(m.remove(&7), None);
        assert!(m.is_empty());
    }

    #[test]
    fn iteration_is_key_ordered_like_a_btreemap() {
        // SplitMix64-ish scramble for a deterministic pseudo-random set.
        let mut m: PMap<u64, u64> = PMap::new();
        let mut reference = BTreeMap::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for i in 0..500u64 {
            x ^= x >> 30;
            x = x.wrapping_mul(0xbf58476d1ce4e5b9);
            let key = if i % 3 == 0 { i } else { x };
            m.insert(key, i);
            reference.insert(key, i);
        }
        let got: Vec<(u64, u64)> = m.iter().map(|(k, v)| (k, *v)).collect();
        let want: Vec<(u64, u64)> = reference.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want);
        assert_eq!(m.len(), reference.len());
    }

    #[test]
    fn random_ops_agree_with_reference_map() {
        let mut m: PMap<u64, u64> = PMap::new();
        let mut reference = BTreeMap::new();
        let mut x = 42u64;
        for _ in 0..4000 {
            x = x
                .wrapping_add(0x9e3779b97f4a7c15)
                .wrapping_mul(0xbf58476d1ce4e5b9);
            let key = (x >> 32) % 257; // force collisions and deletes
            if x.is_multiple_of(5) {
                assert_eq!(m.remove(&key), reference.remove(&key));
            } else {
                assert_eq!(m.insert(key, x), reference.insert(key, x));
            }
            assert_eq!(m.len(), reference.len());
        }
        for (k, v) in &reference {
            assert_eq!(m.get(k), Some(v));
        }
    }

    #[test]
    fn clone_is_isolated_by_path_copying() {
        let mut a: PMap<u64, String> = PMap::new();
        for i in 0..100 {
            a.insert(i, format!("v{i}"));
        }
        let b = a.clone();
        assert!(a.root_shared_with(&b), "clone shares the root");
        a.insert(3, "mutated".into());
        a.remove(&50);
        assert!(!a.root_shared_with(&b), "writes unshare the spine");
        assert_eq!(b.get(&3).map(String::as_str), Some("v3"));
        assert_eq!(b.get(&50).map(String::as_str), Some("v50"));
        assert_eq!(a.get(&3).map(String::as_str), Some("mutated"));
        assert_eq!(a.get(&50), None);
    }

    #[test]
    fn untouched_values_stay_shared_after_a_write() {
        let mut a: PMap<u64, Arc<str>> = PMap::new();
        for i in 0..64 {
            a.insert(i, Arc::from(format!("v{i}").as_str()));
        }
        let sentinel: Arc<str> = a.get(&9).unwrap().clone();
        // base count: map + local handle.
        let base = Arc::strong_count(&sentinel);
        let b = a.clone();
        assert_eq!(
            Arc::strong_count(&sentinel),
            base,
            "cloning the map copies no values at all"
        );
        // Writing a sibling key path-copies the shared bottom node, which
        // bumps (but does not deep-copy) the sentinel's refcount once.
        a.insert(10, Arc::from("other"));
        assert!(Arc::ptr_eq(sentinel_ref(&a, 9), &sentinel));
        assert!(Arc::ptr_eq(sentinel_ref(&b, 9), &sentinel));
    }

    fn sentinel_ref(m: &PMap<u64, Arc<str>>, k: u64) -> &Arc<str> {
        m.get(&k).unwrap()
    }

    #[test]
    fn get_or_insert_with_inserts_once() {
        let mut m: PMap<u64, Vec<u64>> = PMap::new();
        m.get_or_insert_with(5, Vec::new).push(1);
        m.get_or_insert_with(5, || panic!("already present"))
            .push(2);
        assert_eq!(m.get(&5), Some(&vec![1, 2]));
    }

    #[test]
    fn extreme_keys_work() {
        let mut m: PMap<u64, u8> = PMap::new();
        m.insert(0, 1);
        m.insert(u64::MAX, 2);
        m.insert(u64::MAX - 1, 3);
        let keys: Vec<u64> = m.keys().collect();
        assert_eq!(keys, vec![0, u64::MAX - 1, u64::MAX]);
        assert_eq!(m.remove(&u64::MAX), Some(2));
        assert_eq!(m.get(&(u64::MAX - 1)), Some(&3));
    }

    /// Keys at the digit boundaries of the 32-wide levels.
    const BOUNDARY_KEYS: [u64; 9] = [0, 31, 32, 1023, 1024, 32_767, 32_768, 1 << 35, u64::MAX];

    #[test]
    fn height_grows_with_the_largest_key() {
        let mut m: PMap<u64, u64> = PMap::new();
        let mut reference = BTreeMap::new();
        let want_heights = [1, 1, 2, 2, 3, 3, 4, 8, 13];
        for (key, want) in BOUNDARY_KEYS.into_iter().zip(want_heights) {
            m.insert(key, key ^ 0x5a);
            reference.insert(key, key ^ 0x5a);
            assert_eq!(m.height, want, "after inserting {key}");
            for k in reference.keys() {
                assert_eq!(m.get(k), reference.get(k), "key {k} at height {want}");
            }
            let got: Vec<(u64, u64)> = m.iter().map(|(k, v)| (k, *v)).collect();
            let model: Vec<(u64, u64)> = reference.iter().map(|(k, v)| (*k, *v)).collect();
            assert_eq!(got, model);
        }
        // Keys beyond the reach of a short map are simply absent.
        let small: PMap<u64, u64> = (0..32u64).map(|k| (k, k)).collect();
        assert_eq!(small.height, 1);
        assert_eq!(small.get(&32), None);
        assert_eq!(small.get(&u64::MAX), None);
        // Three levels cover every id below 32k.
        let ids: PMap<u64, u64> = (0..32_768u64).step_by(7).map(|k| (k, k)).collect();
        assert_eq!(ids.height, 3);
    }

    #[test]
    fn heights_never_shrink_and_removal_still_prunes() {
        let mut m: PMap<u64, u64> = PMap::new();
        for key in BOUNDARY_KEYS {
            m.insert(key, key);
        }
        for key in BOUNDARY_KEYS {
            assert_eq!(m.remove(&key), Some(key));
        }
        assert!(m.is_empty());
        assert_eq!(m.height, 13);
        assert_eq!(m.root.bitmap(), 0, "empty nodes are pruned");
        m.insert(5, 5);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(5, &5)]);
    }

    #[test]
    fn growth_keeps_the_old_root_shared() {
        let mut a: PMap<u64, u64> = (0..100u64).map(|k| (k, k)).collect();
        let b = a.clone();
        assert!(a.root_shared_with(&b));
        a.insert(1 << 20, 0);
        assert!(!a.root_shared_with(&b), "growth installs a new root");
        assert_eq!((a.height, b.height), (5, 2));
        // The old root is child 0 of child 0 of child 0 of the new one.
        let mut node: &Node<u64> = &a.root;
        for _ in b.height..a.height {
            node = node.low_child().expect("grown root lost its low child");
        }
        assert!(node.same(&b.root), "the old root is shared, not copied");
        assert_eq!(b.len(), 100);
        assert_eq!(b.get(&(1 << 20)), None);
        assert_eq!(a.diff(&b), vec![DiffEntry::Removed(1 << 20)]);
    }

    #[test]
    fn removing_an_absent_key_copies_nothing() {
        let mut a: PMap<u64, u64> = (0..100u64).map(|k| (k, k)).collect();
        let b = a.clone();
        assert_eq!(a.remove(&1_000), None);
        assert_eq!(a.remove(&u64::MAX), None);
        assert!(a.root_shared_with(&b));
    }

    #[test]
    fn equality_and_from_iter() {
        let a: PMap<u64, u64> = (0..10u64).map(|i| (i, i * i)).collect();
        let b: PMap<u64, u64> = (0..10u64).rev().map(|i| (i, i * i)).collect();
        assert_eq!(a, b);
        let mut c = a.clone();
        c.insert(3, 0);
        assert_ne!(a, c);
    }
}
