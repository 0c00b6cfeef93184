//! Deterministic randomized suite (SplitMix64-driven), covering the
//! same ground as the gated `prop_oms` proptest suite — transaction
//! rollback, image round trips and the incremental checkpointer —
//! without any external dependency.

use cad_vfs::SplitMix64;
use oms::{persist, AttrType, Cardinality, Database, Schema, SchemaBuilder, Value};

fn schema() -> Schema {
    let mut b = SchemaBuilder::new();
    let node = b
        .class(
            "Node",
            &[("label", AttrType::Text), ("weight", AttrType::Int)],
        )
        .unwrap();
    b.relationship("edge", node, node, Cardinality::ManyToMany)
        .unwrap();
    b.build()
}

/// Applies `n` random mutations drawn from the generator.
fn mutate(db: &mut Database, rng: &mut SplitMix64, n: usize) {
    let node = db.schema().class_by_name("Node").unwrap();
    let edge = db.schema().relationship_by_name("edge").unwrap();
    for _ in 0..n {
        let ids = db.objects_of(node);
        let pick = |rng: &mut SplitMix64| {
            if ids.is_empty() {
                None
            } else {
                Some(ids[rng.below(ids.len())])
            }
        };
        match rng.below(6) {
            0 => {
                db.create(node).unwrap();
            }
            1 => {
                if let Some(id) = pick(rng) {
                    let len = rng.below(7);
                    let label = rng.ident(len.max(1));
                    db.set(id, "label", Value::from(label)).unwrap();
                }
            }
            2 => {
                if let Some(id) = pick(rng) {
                    let w = rng.next_u64() as i64;
                    db.set(id, "weight", Value::from(w)).unwrap();
                }
            }
            3 => {
                if let (Some(x), Some(y)) = (pick(rng), pick(rng)) {
                    let _ = db.link(edge, x, y);
                }
            }
            4 => {
                if let (Some(x), Some(y)) = (pick(rng), pick(rng)) {
                    let _ = db.unlink(edge, x, y);
                }
            }
            _ => {
                if let Some(id) = pick(rng) {
                    let _ = db.delete(id);
                }
            }
        }
    }
}

#[test]
fn abort_restores_exact_image() {
    let mut rng = SplitMix64::new(0x0175_1995);
    for _ in 0..25 {
        let mut db = Database::new(schema());
        mutate(&mut db, &mut rng, 20);
        let before = persist::dump(&db);
        db.begin().unwrap();
        mutate(&mut db, &mut rng, 30);
        db.abort().unwrap();
        assert_eq!(persist::dump(&db), before);
    }
}

#[test]
fn image_round_trip() {
    let mut rng = SplitMix64::new(7);
    for _ in 0..25 {
        let mut db = Database::new(schema());
        mutate(&mut db, &mut rng, 40);
        let image = persist::dump(&db);
        let restored = persist::parse(schema(), &image).unwrap();
        assert_eq!(persist::dump(&restored), image);
    }
}

#[test]
fn checkpointer_always_matches_full_dump() {
    // The incremental checkpointer must produce byte-identical images
    // to the full dump at every step of a random mutation history.
    let mut rng = SplitMix64::new(8);
    let mut db = Database::new(schema());
    let mut ckpt = persist::Checkpointer::new();
    for step in 0..60 {
        mutate(&mut db, &mut rng, 3);
        assert_eq!(ckpt.dump(&db), persist::dump(&db), "step {step}");
    }
    // A dump with no intervening mutation serializes nothing afresh.
    let _ = ckpt.dump(&db);
    assert_eq!(ckpt.last_serialized(), 0);
}

/// A hub object linked to 3 000 members, as the master framework's team
/// and flow objects are: one write to the hub's link set under a
/// retained snapshot copies one chunk of the set, not the set.
#[test]
fn a_hub_write_under_a_snapshot_unshares_one_link_chunk() {
    let mut db = Database::new(schema());
    let node = db.schema().class_by_name("Node").unwrap();
    let edge = db.schema().relationship_by_name("edge").unwrap();
    let hub = db.create(node).unwrap();
    let members: Vec<_> = (0..3_000).map(|_| db.create(node).unwrap()).collect();
    for m in &members {
        db.link(edge, hub, *m).unwrap();
    }
    let snap = db.snapshot();
    let (shared, chunks) = db.link_chunks_shared_with(&snap, edge, hub);
    assert_eq!(shared, chunks, "a snapshot shares every chunk");
    assert!(chunks > 20, "3 000 members span many chunks, got {chunks}");

    // The write the catalog build makes on every new cell version: link
    // one more member to the hub.
    let newcomer = db.create(node).unwrap();
    db.link(edge, hub, newcomer).unwrap();
    assert_eq!(
        db.link_chunks_shared_with(&snap, edge, hub),
        (chunks - 1, chunks),
        "exactly one chunk was copied"
    );
    // Removing a member elsewhere in the set copies one more chunk.
    db.unlink(edge, hub, members[1_000]).unwrap();
    assert_eq!(
        db.link_chunks_shared_with(&snap, edge, hub),
        (chunks - 2, chunks)
    );
    // The snapshot still answers with the pre-write set.
    assert_eq!(snap.targets(edge, hub), members);
    assert!(db.linked(edge, hub, newcomer) && !snap.linked(edge, hub, newcomer));
    assert!(!db.linked(edge, hub, members[1_000]));
    assert_eq!(db.targets(edge, hub).len(), 3_000);
}
