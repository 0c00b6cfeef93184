//! Deterministic property suite for [`PMap::diff`] (SplitMix64-driven,
//! mirroring the map against a `BTreeMap` reference), in the style of
//! `det_oms`. Covers the delta-checkpoint contract end to end:
//!
//! - the diff of two mirrored maps reproduces the *exact*
//!   add/update/remove set a `BTreeMap` comparison would produce;
//! - `apply_diff(base, diff) == target`, value for value;
//! - the diff of pointer-equal maps is empty and O(1) — zero value
//!   comparisons, zero value clones;
//! - the diff of an evolved clone performs work proportional to the
//!   number of touched keys, not the map size (structural sharing).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use cad_vfs::SplitMix64;
use oms::{DiffEntry, PMap};

/// A value whose comparisons and clones are globally counted, so the
/// suite can assert *how much work* a diff did, not just its output.
#[derive(Debug, Eq)]
struct Probe(u64);

static COMPARISONS: AtomicUsize = AtomicUsize::new(0);
static CLONES: AtomicUsize = AtomicUsize::new(0);

impl PartialEq for Probe {
    fn eq(&self, other: &Probe) -> bool {
        COMPARISONS.fetch_add(1, Ordering::Relaxed);
        self.0 == other.0
    }
}

impl Clone for Probe {
    fn clone(&self) -> Probe {
        CLONES.fetch_add(1, Ordering::Relaxed);
        Probe(self.0)
    }
}

fn reset_counters() {
    COMPARISONS.store(0, Ordering::Relaxed);
    CLONES.store(0, Ordering::Relaxed);
}

/// The reference diff: what a pair of `BTreeMap`s says changed.
fn reference_diff(
    base: &BTreeMap<u64, u64>,
    target: &BTreeMap<u64, u64>,
) -> Vec<DiffEntry<u64, u64>> {
    let mut out = Vec::new();
    for (k, v) in base {
        match target.get(k) {
            None => out.push(DiffEntry::Removed(*k)),
            Some(t) if t != v => out.push(DiffEntry::Updated(*k, *t)),
            Some(_) => {}
        }
    }
    for (k, v) in target {
        if !base.contains_key(k) {
            out.push(DiffEntry::Added(*k, *v));
        }
    }
    out.sort_by_key(|e| *e.key());
    out
}

/// Builds a `(PMap, BTreeMap)` mirrored pair from `n` seeded inserts
/// over a small key universe (to force collisions and updates).
fn seeded_pair(
    rng: &mut SplitMix64,
    n: usize,
    universe: u64,
) -> (PMap<u64, u64>, BTreeMap<u64, u64>) {
    let mut m = PMap::new();
    let mut r = BTreeMap::new();
    for _ in 0..n {
        let k = rng.next_u64() % universe;
        let v = rng.next_u64();
        if v.is_multiple_of(7) {
            m.remove(&k);
            r.remove(&k);
        } else {
            m.insert(k, v);
            r.insert(k, v);
        }
    }
    (m, r)
}

#[test]
fn diff_of_mirrored_maps_matches_the_reference_exactly() {
    let mut rng = SplitMix64::new(0x00D1_FF01);
    for trial in 0..40 {
        // Independent maps: every overlap pattern shows up.
        let (base, base_ref) = seeded_pair(&mut rng, 60 + trial, 97);
        let (target, target_ref) = seeded_pair(&mut rng, 60 + trial, 97);
        let got = base.diff(&target);
        let want = reference_diff(&base_ref, &target_ref);
        assert_eq!(got, want, "trial {trial}");
        // Records must come out key-sorted: the persisted delta format
        // relies on it for canonical bytes.
        let keys: Vec<u64> = got.iter().map(|e| *e.key()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "trial {trial}: diff not key-ordered");
    }
}

#[test]
fn apply_diff_turns_base_into_target() {
    let mut rng = SplitMix64::new(0x00D1_FF02);
    for trial in 0..40 {
        let (base, _) = seeded_pair(&mut rng, 80, 211);
        // Evolve a clone so the diff sees both shared and fresh nodes.
        let mut target = base.clone();
        for _ in 0..rng.below(50) {
            let k = rng.next_u64() % 211;
            if rng.next_u64().is_multiple_of(3) {
                target.remove(&k);
            } else {
                target.insert(k, rng.next_u64());
            }
        }
        let diff = base.diff(&target);
        let rebuilt = base.apply_diff(&diff);
        assert_eq!(rebuilt, target, "trial {trial}");
        assert_eq!(rebuilt.len(), target.len(), "trial {trial}");
        // And the reverse direction works with the reverse diff.
        let back = target.apply_diff(&target.diff(&base));
        assert_eq!(back, base, "trial {trial} (reverse)");
    }
}

#[test]
fn diff_of_pointer_equal_maps_is_empty_and_o1() {
    let mut m: PMap<u64, Probe> = PMap::new();
    let mut rng = SplitMix64::new(0x00D1_FF03);
    for _ in 0..4096 {
        m.insert(rng.next_u64(), Probe(rng.next_u64()));
    }
    let clone = m.clone();
    assert!(m.root_shared_with(&clone));
    reset_counters();
    assert!(m.diff(&clone).is_empty());
    assert!(clone.diff(&m).is_empty());
    assert_eq!(
        COMPARISONS.load(Ordering::Relaxed),
        0,
        "pointer-equal maps must diff without comparing a single value"
    );
    assert_eq!(
        CLONES.load(Ordering::Relaxed),
        0,
        "pointer-equal maps must diff without cloning a single value"
    );
}

#[test]
fn diff_of_an_evolved_clone_is_proportional_to_the_delta() {
    let mut m: PMap<u64, Probe> = PMap::new();
    let mut rng = SplitMix64::new(0x00D1_FF04);
    for _ in 0..4096 {
        m.insert(rng.next_u64(), Probe(rng.next_u64()));
    }
    let base = m.clone();
    // Touch 8 keys out of ~4096.
    let touched: Vec<u64> = base.keys().step_by(512).take(8).collect();
    for (i, k) in touched.iter().enumerate() {
        m.insert(*k, Probe(i as u64));
    }
    reset_counters();
    let diff = base.diff(&m);
    assert_eq!(diff.len(), touched.len());
    // Path-copying unshares at most the spine of each touched key, so
    // the walk may compare the handful of leaves sharing those copied
    // nodes — but nowhere near the 4096 an O(n) scan would do.
    let compared = COMPARISONS.load(Ordering::Relaxed);
    assert!(
        compared <= touched.len() * 64,
        "diff compared {compared} values for an 8-key delta over 4096 entries"
    );
}

#[test]
fn diff_covers_empty_and_disjoint_extremes() {
    let empty: PMap<u64, u64> = PMap::new();
    let full: PMap<u64, u64> = (0..32u64).map(|i| (i * 17, i)).collect();
    assert_eq!(empty.diff(&empty), Vec::new());
    let adds = empty.diff(&full);
    assert_eq!(adds.len(), 32);
    assert!(adds.iter().all(|e| matches!(e, DiffEntry::Added(_, _))));
    let removes = full.diff(&empty);
    assert_eq!(removes.len(), 32);
    assert!(removes.iter().all(|e| matches!(e, DiffEntry::Removed(_))));
    assert_eq!(empty.apply_diff(&adds), full);
    assert_eq!(full.apply_diff(&removes), empty);
    // Extreme keys keep their big-endian path intact through the
    // prefix-accumulation in the walk.
    let mut hi: PMap<u64, u64> = PMap::new();
    hi.insert(0, 1);
    hi.insert(u64::MAX, 2);
    let lo: PMap<u64, u64> = PMap::new();
    let d = lo.diff(&hi);
    assert_eq!(
        d,
        vec![DiffEntry::Added(0, 1), DiffEntry::Added(u64::MAX, 2)]
    );
}

/// Keys spread over every trie height: small dense ids, the 32-wide
/// level boundaries, and keys up to `u64::MAX`.
fn any_height_key(rng: &mut SplitMix64) -> u64 {
    match rng.below(4) {
        0 => rng.next_u64() % 64,
        1 => [0, 31, 32, 1023, 1024, 1 << 35, u64::MAX][rng.below(7)],
        2 => rng.next_u64() >> (rng.below(64) as u32),
        _ => rng.next_u64() % 40_000,
    }
}

#[test]
fn diff_between_maps_of_different_heights_matches_the_reference() {
    let mut rng = SplitMix64::new(0x00D1_FF05);
    for trial in 0..60 {
        // A short base (keys below 1024) against a target that may
        // reach any height, both independent and as an evolved clone.
        let mut base: PMap<u64, u64> = PMap::new();
        let mut base_ref = BTreeMap::new();
        for _ in 0..rng.below(80) {
            let (k, v) = (rng.next_u64() % 1024, rng.next_u64());
            base.insert(k, v);
            base_ref.insert(k, v);
        }
        let (mut target, mut target_ref) = if trial % 2 == 0 {
            (base.clone(), base_ref.clone())
        } else {
            (PMap::new(), BTreeMap::new())
        };
        for _ in 0..rng.below(60) {
            let k = any_height_key(&mut rng);
            if rng.below(4) == 0 {
                assert_eq!(target.remove(&k), target_ref.remove(&k));
            } else {
                let v = rng.next_u64();
                assert_eq!(target.insert(k, v), target_ref.insert(k, v));
            }
        }
        let model: Vec<(u64, u64)> = target_ref.iter().map(|(k, v)| (*k, *v)).collect();
        let got: Vec<(u64, u64)> = target.iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(got, model, "trial {trial}: iteration order");
        for (a, a_ref, b, b_ref) in [
            (&base, &base_ref, &target, &target_ref),
            (&target, &target_ref, &base, &base_ref),
        ] {
            let d = a.diff(b);
            assert_eq!(d, reference_diff(a_ref, b_ref), "trial {trial}");
            assert_eq!(&a.apply_diff(&d), b, "trial {trial}");
        }
    }
}

#[test]
fn diff_of_a_clone_that_grew_skips_everything_it_shares() {
    let mut m: PMap<u64, Probe> = PMap::new();
    for k in 0..4096u64 {
        m.insert(k, Probe(k));
    }
    let base = m.clone();
    // Growing by two far keys raises the height; one small key changes.
    m.insert(1 << 35, Probe(1));
    m.insert(u64::MAX, Probe(2));
    m.insert(7, Probe(70));
    assert!(!m.root_shared_with(&base));
    reset_counters();
    let diff = base.diff(&m);
    assert_eq!(
        diff.iter().map(|e| *e.key()).collect::<Vec<u64>>(),
        vec![7, 1 << 35, u64::MAX]
    );
    let compared = COMPARISONS.load(Ordering::Relaxed);
    assert!(
        compared <= 32,
        "a grown clone compared {compared} values; only the touched leaf node may be walked"
    );
    reset_counters();
    let back = m.diff(&base);
    assert_eq!(back.len(), 3);
    assert!(COMPARISONS.load(Ordering::Relaxed) <= 32);
    assert_eq!(base.apply_diff(&diff), m);
    assert_eq!(m.apply_diff(&back), base);
}
