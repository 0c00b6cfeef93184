//! Persistent sorted id sets: the cells of the store's link index.
//!
//! The master framework hangs every cell version under a few hub
//! objects (one team, one standard flow), so the partner set of a hub
//! grows with the database. A retained snapshot shares those sets with
//! the live store; if a set were one shared allocation, the next link
//! to the hub would copy all of it.
//!
//! [`LinkSet`] instead splits the sorted ids into chunks of at most
//! [`CHUNK`] ids, each behind its own [`Arc`], under an `Arc`'d spine
//! of chunk handles. Cloning a set is one reference-count bump; an
//! insert or remove rebuilds only the one chunk it lands in and, when
//! the spine is shared, copies the spine's chunk *handles* — never the
//! ids of the other chunks. A chunk that overflows splits (appends at
//! the end of the set keep the full chunk whole, so monotone id growth
//! packs chunks densely); a chunk that shrinks below a quarter of
//! [`CHUNK`] merges with a neighbour.

use std::fmt;
use std::sync::Arc;

use crate::store::ObjectId;

/// Most ids one chunk holds. A write to a shared set copies one chunk
/// (a plain memcpy) plus one handle per chunk (an atomic refcount bump
/// each); 128 balances the two for hubs of ~30k members, where 64
/// made the handle copies the larger cost.
pub(crate) const CHUNK: usize = 128;

/// A chunk left with fewer ids than this by a removal merges with a
/// neighbour.
const MIN_CHUNK: usize = CHUNK / 4;

/// Sorted, non-empty, at most [`CHUNK`] ids.
type Chunk = Arc<[ObjectId]>;

/// A persistent sorted set of object ids. See the [module docs](self).
#[derive(Clone)]
pub(crate) struct LinkSet {
    /// Chunks in ascending id order; ranges never overlap.
    chunks: Arc<[Chunk]>,
}

impl Default for LinkSet {
    fn default() -> Self {
        LinkSet {
            chunks: Arc::new([]),
        }
    }
}

impl LinkSet {
    /// Returns `true` if the set holds no ids.
    pub(crate) fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Iterates the ids in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &ObjectId> + '_ {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// The index of the chunk `id` belongs in: the first chunk whose
    /// last id is not below `id`, or the last chunk when `id` is beyond
    /// every chunk. `None` for an empty set.
    fn chunk_for(&self, id: ObjectId) -> Option<usize> {
        let last = self.chunks.len().checked_sub(1)?;
        Some(
            self.chunks
                .partition_point(|c| c[c.len() - 1] < id)
                .min(last),
        )
    }

    /// Returns `true` if `id` is in the set.
    pub(crate) fn contains(&self, id: &ObjectId) -> bool {
        self.chunk_for(*id)
            .is_some_and(|i| self.chunks[i].binary_search(id).is_ok())
    }

    /// Adds `id`, returning `false` if it was already present.
    pub(crate) fn insert(&mut self, id: ObjectId) -> bool {
        let Some(i) = self.chunk_for(id) else {
            self.chunks = Arc::new([Arc::new([id]) as Chunk]);
            return true;
        };
        let chunk = &self.chunks[i];
        let Err(pos) = chunk.binary_search(&id) else {
            return false;
        };
        if chunk.len() < CHUNK {
            let grown: Chunk = chunk[..pos]
                .iter()
                .copied()
                .chain(std::iter::once(id))
                .chain(chunk[pos..].iter().copied())
                .collect();
            self.splice(i..i + 1, [grown]);
            return true;
        }
        let mut ids = Vec::with_capacity(CHUNK + 1);
        ids.extend_from_slice(&chunk[..pos]);
        ids.push(id);
        ids.extend_from_slice(&chunk[pos..]);
        let appended = i + 1 == self.chunks.len() && pos == CHUNK;
        let right = ids.split_off(if appended { CHUNK } else { ids.len() / 2 });
        self.splice(i..i + 1, [Chunk::from(ids), Chunk::from(right)]);
        true
    }

    /// Removes `id`, returning `false` if it was absent.
    pub(crate) fn remove(&mut self, id: &ObjectId) -> bool {
        let Some(i) = self.chunk_for(*id) else {
            return false;
        };
        let chunk = &self.chunks[i];
        if chunk.binary_search(id).is_err() {
            return false;
        }
        let n = self.chunks.len();
        if chunk.len() > MIN_CHUNK || n == 1 {
            let shrunk: Chunk = chunk.iter().copied().filter(|t| t != id).collect();
            if shrunk.is_empty() {
                self.splice(i..i + 1, []);
            } else {
                self.splice(i..i + 1, [shrunk]);
            }
            return true;
        }
        // Merge the underfull chunk with its right neighbour (the left
        // one for the last chunk), re-splitting evenly on overflow.
        let range = if i + 1 < n { i..i + 2 } else { i - 1..i + 1 };
        let mut ids: Vec<ObjectId> = self.chunks[range.clone()]
            .iter()
            .flat_map(|c| c.iter().copied())
            .filter(|t| t != id)
            .collect();
        if ids.len() <= CHUNK {
            self.splice(range, [Chunk::from(ids)]);
        } else {
            let right = ids.split_off(ids.len() / 2);
            self.splice(range, [Chunk::from(ids), Chunk::from(right)]);
        }
        true
    }

    /// Replaces the chunks in `range` with `with`. Writes the spine in
    /// place when this set owns it and the chunk count is unchanged;
    /// otherwise builds a new spine of handles.
    fn splice<const N: usize>(&mut self, range: std::ops::Range<usize>, with: [Chunk; N]) {
        if range.len() == N {
            if let Some(spine) = Arc::get_mut(&mut self.chunks) {
                for (slot, chunk) in spine[range].iter_mut().zip(with) {
                    *slot = chunk;
                }
                return;
            }
        }
        self.chunks = self.chunks[..range.start]
            .iter()
            .cloned()
            .chain(with)
            .chain(self.chunks[range.end..].iter().cloned())
            .collect();
    }

    /// Number of chunks, and how many of them are the same allocation
    /// as a chunk of `other`. Diagnostic for structural-sharing tests.
    pub(crate) fn chunks_shared_with(&self, other: &LinkSet) -> (usize, usize) {
        let shared = self
            .chunks
            .iter()
            .filter(|c| other.chunks.iter().any(|o| Arc::ptr_eq(c, o)))
            .count();
        (shared, self.chunks.len())
    }
}

impl PartialEq for LinkSet {
    fn eq(&self, other: &LinkSet) -> bool {
        Arc::ptr_eq(&self.chunks, &other.chunks) || self.iter().eq(other.iter())
    }
}

impl Eq for LinkSet {}

impl fmt::Debug for LinkSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cad_vfs::SplitMix64;
    use std::collections::BTreeSet;

    fn id(raw: u64) -> ObjectId {
        ObjectId::from_raw(raw)
    }

    /// Structural invariants: sorted, non-empty chunks of at most
    /// `CHUNK` ids whose ranges ascend without overlap.
    fn check_shape(set: &LinkSet) {
        for c in set.chunks.iter() {
            assert!(!c.is_empty() && c.len() <= CHUNK, "chunk of {}", c.len());
            assert!(c.windows(2).all(|w| w[0] < w[1]), "chunk not sorted");
        }
        assert!(
            set.chunks
                .windows(2)
                .all(|w| w[0][w[0].len() - 1] < w[1][0]),
            "chunk ranges overlap"
        );
    }

    fn same(set: &LinkSet, model: &BTreeSet<ObjectId>) -> bool {
        set.iter().copied().eq(model.iter().copied())
    }

    #[test]
    fn random_ops_agree_with_a_btreeset_and_snapshots_never_change() {
        for seed in [1u64, 7, 0x11CE] {
            let mut rng = SplitMix64::new(seed);
            let mut set = LinkSet::default();
            let mut model = BTreeSet::new();
            let mut retained: Vec<(LinkSet, BTreeSet<ObjectId>)> = Vec::new();
            let mut max_chunks = 0;
            for step in 0..6_000u64 {
                // Two phases: growth past many chunk splits, then churn
                // that drains chunks into merges.
                let universe = if step < 3_000 { 4_000 } else { 600 };
                let raw = rng.next_u64() % universe;
                let grow = step < 3_000 || rng.next_u64().is_multiple_of(3);
                match rng.next_u64() % 4 {
                    3 => assert_eq!(set.contains(&id(raw)), model.contains(&id(raw))),
                    op if op < 2 && grow => assert_eq!(set.insert(id(raw)), model.insert(id(raw))),
                    _ => assert_eq!(set.remove(&id(raw)), model.remove(&id(raw))),
                }
                max_chunks = max_chunks.max(set.chunks.len());
                if step % 97 == 0 {
                    retained.push((set.clone(), model.clone()));
                }
                if step % 499 == 0 {
                    check_shape(&set);
                    assert!(same(&set, &model), "seed {seed} step {step}");
                }
            }
            check_shape(&set);
            assert!(same(&set, &model));
            assert_eq!(set.is_empty(), model.is_empty());
            assert!(max_chunks > 10, "the campaign must cross many chunks");
            for (snap, snap_model) in &retained {
                check_shape(snap);
                assert!(same(snap, snap_model), "seed {seed}: a snapshot changed");
            }
        }
    }

    #[test]
    fn appends_pack_full_chunks_and_drains_merge_them() {
        let mut set = LinkSet::default();
        for raw in 0..(CHUNK as u64 * 4) {
            set.insert(id(raw));
        }
        assert_eq!(set.chunks.len(), 4, "monotone appends fill chunks");
        assert!(set.chunks.iter().all(|c| c.len() == CHUNK));
        // An interior insert into a full chunk halves it.
        set.insert(id(10_000));
        set.remove(&id(10_000));
        set.insert(id(u64::MAX));
        assert_eq!(set.chunks.len(), 5);
        // Drain the second chunk: it merges into a neighbour once it
        // runs underfull, so no chunk ever falls below a quarter.
        for raw in CHUNK as u64..(CHUNK as u64 * 2) {
            assert!(set.remove(&id(raw)));
            check_shape(&set);
        }
        for raw in (0..CHUNK as u64).chain(CHUNK as u64 * 2..CHUNK as u64 * 4) {
            assert!(set.remove(&id(raw)));
        }
        assert!(set.contains(&id(u64::MAX)));
        assert!(set.remove(&id(u64::MAX)));
        assert!(set.is_empty());
        assert!(!set.remove(&id(3)));
    }

    #[test]
    fn a_write_under_a_clone_unshares_one_chunk() {
        let mut set = LinkSet::default();
        for raw in 0..3_000u64 {
            set.insert(id(raw * 2));
        }
        let snap = set.clone();
        let (shared, total) = set.chunks_shared_with(&snap);
        assert_eq!(shared, total);
        // The hub case: an append lands in the last chunk, which is not
        // full, and rebuilds only that chunk.
        set.insert(id(6_000));
        assert_eq!(set.chunks_shared_with(&snap), (total - 1, total));
        // A remove in another chunk rebuilds that one chunk; a second
        // write to the same chunk unshares nothing more.
        set.remove(&id(4_000));
        assert_eq!(set.chunks_shared_with(&snap), (total - 2, total));
        set.insert(id(4_001));
        assert_eq!(set.chunks_shared_with(&snap), (total - 2, total));
        assert!(snap.contains(&id(4_000)) && !snap.contains(&id(6_000)));
        assert_ne!(set, snap);
    }
}
