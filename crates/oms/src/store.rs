//! The object store: objects, attributes, links and transactions.
//!
//! Every table is persistent, so [`Database::snapshot`] is O(1) and a
//! write after a snapshot copies only what it touches:
//!
//! - objects live in a [`PMap`] of `Arc<Object>`: a write path-copies
//!   the trie arrays down to one object and `make_mut`s that object;
//! - each relationship has a forward (source → targets) and a reverse
//!   (target → sources) [`PMap`] of link sets. A link set is a chunked
//!   persistent sorted set (`LinkSet`, see `linkset.rs`), so linking
//!   one more cell version to a hub shared with a retained snapshot
//!   copies one chunk of the hub's set and the set's chunk handles —
//!   not the whole set.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::error::{OmsError, OmsResult};
use crate::linkset::LinkSet;
use crate::pmap::{PMap, PmapKey};
use crate::schema::{Cardinality, ClassId, RelId, Schema};
use crate::value::Value;

/// Identifier of a live object in a [`Database`].
///
/// Ids are never reused, so a stale id reliably reports
/// [`OmsError::NoSuchObject`] instead of aliasing a new object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub(crate) u64);

impl ObjectId {
    /// Returns the raw id value (stable across the database lifetime).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds an id from its raw value, e.g. when decoding a
    /// persisted image or an operations journal. The id is only
    /// meaningful against the database it was taken from.
    pub fn from_raw(raw: u64) -> Self {
        ObjectId(raw)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

impl PmapKey for ObjectId {
    fn to_bits(self) -> u64 {
        self.0
    }
    fn from_bits(bits: u64) -> Self {
        ObjectId(bits)
    }
}

/// Attribute keys are interned `Arc<str>` handles cloned from the
/// schema's [`AttrDef`](crate::AttrDef) declarations: every object of a
/// class shares the same name allocations, so copy-on-write clones of
/// an object copy pointers, not strings.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Object {
    pub(crate) class: ClassId,
    pub(crate) attrs: BTreeMap<Arc<str>, Value>,
}

/// One undo step recorded while a transaction is open.
#[derive(Debug)]
enum Undo {
    Created(ObjectId),
    Deleted(ObjectId, Arc<Object>, Vec<(RelId, ObjectId, ObjectId)>),
    AttrSet(ObjectId, Arc<str>, Value),
    Linked(RelId, ObjectId, ObjectId),
    Unlinked(RelId, ObjectId, ObjectId),
}

/// The OMS object-oriented database.
///
/// Models the *"common object-oriented database OMS"* \[Meck92\] in which
/// JCF 3.0 stores metadata and design data. It is a typed object store:
/// the immutable [`Schema`] defines classes, attributes and
/// relationships; the store enforces attribute types, link endpoint
/// classes and link cardinality on every mutation.
///
/// Mutations can be grouped into a transaction ([`Database::begin`],
/// [`Database::commit`], [`Database::abort`]); aborting rolls the store
/// back to the state at `begin`. JCF's desktop operations run inside
/// such transactions so that a failed encapsulation step never leaves
/// metadata half-updated.
///
/// Note the deliberate limitation the paper complains about (§2.1):
/// *"Direct access to the internal structure of the stored data by an
/// appropriate interface is not possible"* — external tools never get a
/// pointer into the store; design data enters and leaves only by value
/// (copied blobs), which the `hybrid` crate routes through the VFS.
///
/// # Examples
///
/// ```
/// # use oms::{Database, SchemaBuilder, AttrType, Value};
/// # fn main() -> Result<(), oms::OmsError> {
/// let mut b = SchemaBuilder::new();
/// let cell = b.class("Cell", &[("name", AttrType::Text)])?;
/// let mut db = Database::new(b.build());
/// let adder = db.create(cell)?;
/// db.set(adder, "name", Value::from("adder"))?;
/// assert_eq!(db.get(adder, "name")?.as_text(), Some("adder"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Database {
    schema: Arc<Schema>,
    /// Persistent trie of `Arc`-wrapped objects: cloning the map is a
    /// root refcount bump; mutating an object path-copies its spine and
    /// `make_mut`s the one object touched.
    objects: PMap<ObjectId, Arc<Object>>,
    /// Forward links per relationship: source -> set of targets.
    /// Chunked persistent sets, so a hub's set is copied a chunk at a
    /// time.
    forward: Vec<PMap<ObjectId, LinkSet>>,
    /// Reverse links per relationship: target -> set of sources.
    reverse: Vec<PMap<ObjectId, LinkSet>>,
    next_id: u64,
    journal: Option<Vec<Undo>>,
}

impl Database {
    /// Creates an empty database over `schema`.
    pub fn new(schema: Schema) -> Self {
        let rel_count = schema.relationships().count();
        Database {
            schema: Arc::new(schema),
            objects: PMap::new(),
            forward: vec![PMap::new(); rel_count],
            reverse: vec![PMap::new(); rel_count],
            next_id: 1,
            journal: None,
        }
    }

    /// Returns the schema this database enforces.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Takes an immutable point-in-time copy of the store for
    /// concurrent readers.
    ///
    /// This is an **O(1)** operation: the schema handle, the object
    /// trie and every link trie are persistent, structurally-shared
    /// structures whose clone is a reference-count bump. No object, no
    /// attribute map and no `Value::Bytes` payload is copied — later
    /// writes to `self` path-copy only the trie nodes they touch,
    /// leaving everything else shared with the snapshot. An open
    /// transaction on `self` is not carried over: the snapshot starts
    /// with no transaction in progress and reflects the store exactly
    /// as it stands now, including uncommitted mutations.
    pub fn snapshot(&self) -> Database {
        Database {
            schema: Arc::clone(&self.schema),
            objects: self.objects.clone(),
            forward: self.forward.clone(),
            reverse: self.reverse.clone(),
            next_id: self.next_id,
            journal: None,
        }
    }

    /// Returns the number of live objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Returns `true` if the database holds no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    fn record(&mut self, undo: Undo) {
        if let Some(journal) = &mut self.journal {
            journal.push(undo);
        }
    }

    /// Creates a new object of `class` with default attribute values.
    ///
    /// # Errors
    ///
    /// Never fails for a `ClassId` obtained from this database's schema.
    pub fn create(&mut self, class: ClassId) -> OmsResult<ObjectId> {
        let schema = Arc::clone(&self.schema);
        let def = schema.class(class);
        let id = ObjectId(self.next_id);
        self.next_id += 1;
        let attrs = def
            .attributes
            .iter()
            .map(|a| (Arc::clone(&a.name), Value::default_for(a.ty)))
            .collect();
        self.objects.insert(id, Arc::new(Object { class, attrs }));
        self.record(Undo::Created(id));
        Ok(id)
    }

    /// Deletes an object.
    ///
    /// # Errors
    ///
    /// Returns [`OmsError::ObjectStillLinked`] while any link still
    /// references the object — callers must unlink first, which keeps
    /// referential integrity without cascades.
    pub fn delete(&mut self, id: ObjectId) -> OmsResult<()> {
        if !self.objects.contains_key(&id) {
            return Err(OmsError::NoSuchObject(id));
        }
        let linked = self
            .forward
            .iter()
            .any(|m| m.get(&id).is_some_and(|s| !s.is_empty()))
            || self
                .reverse
                .iter()
                .any(|m| m.get(&id).is_some_and(|s| !s.is_empty()));
        if linked {
            return Err(OmsError::ObjectStillLinked(id));
        }
        let obj = self.objects.remove(&id).expect("checked above");
        self.record(Undo::Deleted(id, obj, Vec::new()));
        Ok(())
    }

    /// Returns the class of an object.
    ///
    /// # Errors
    ///
    /// Returns [`OmsError::NoSuchObject`] for dead or unknown ids.
    pub fn class_of(&self, id: ObjectId) -> OmsResult<ClassId> {
        self.objects
            .get(&id)
            .map(|o| o.class)
            .ok_or(OmsError::NoSuchObject(id))
    }

    /// Reads an attribute value.
    ///
    /// # Errors
    ///
    /// Returns [`OmsError::UnknownAttribute`] if the class does not
    /// declare `name`, or [`OmsError::NoSuchObject`].
    pub fn get(&self, id: ObjectId, name: &str) -> OmsResult<&Value> {
        let obj = self.objects.get(&id).ok_or(OmsError::NoSuchObject(id))?;
        obj.attrs
            .get(name)
            .ok_or_else(|| OmsError::UnknownAttribute {
                class: obj.class,
                attribute: name.to_owned(),
            })
    }

    /// Writes an attribute value, checking its declared type.
    ///
    /// # Errors
    ///
    /// Returns [`OmsError::TypeMismatch`] on a wrongly-typed value,
    /// [`OmsError::UnknownAttribute`] or [`OmsError::NoSuchObject`].
    pub fn set(&mut self, id: ObjectId, name: &str, value: Value) -> OmsResult<()> {
        let obj = self.objects.get(&id).ok_or(OmsError::NoSuchObject(id))?;
        let decl = self
            .schema
            .class(obj.class)
            .attribute(name)
            .ok_or_else(|| OmsError::UnknownAttribute {
                class: obj.class,
                attribute: name.to_owned(),
            })?;
        if decl.ty != value.attr_type() {
            return Err(OmsError::TypeMismatch {
                attribute: name.to_owned(),
                expected: type_name(decl.ty),
                found: type_name(value.attr_type()),
            });
        }
        let key = Arc::clone(&decl.name);
        let obj = Arc::make_mut(self.objects.get_mut(&id).expect("checked above"));
        let old = obj
            .attrs
            .insert(Arc::clone(&key), value)
            .expect("declared attributes are always present");
        self.record(Undo::AttrSet(id, key, old));
        Ok(())
    }

    /// Creates a link `source -> target` along `rel`.
    ///
    /// # Errors
    ///
    /// Returns [`OmsError::EndpointClassMismatch`] if the endpoint
    /// classes differ from the declaration,
    /// [`OmsError::CardinalityViolation`] if a `One` side already has a
    /// partner, or [`OmsError::NoSuchObject`].
    pub fn link(&mut self, rel: RelId, source: ObjectId, target: ObjectId) -> OmsResult<()> {
        let schema = Arc::clone(&self.schema);
        let def = schema.relationship(rel);
        let src_class = self.class_of(source)?;
        let dst_class = self.class_of(target)?;
        if src_class != def.source || dst_class != def.target {
            return Err(OmsError::EndpointClassMismatch { relationship: rel });
        }
        let source_limited = matches!(
            def.cardinality,
            Cardinality::OneToOne | Cardinality::ManyToOne
        );
        let target_limited = matches!(
            def.cardinality,
            Cardinality::OneToOne | Cardinality::OneToMany
        );
        if source_limited
            && self.forward[rel.index()]
                .get(&source)
                .is_some_and(|s| !s.is_empty())
        {
            return Err(OmsError::CardinalityViolation {
                relationship: rel,
                object: source,
            });
        }
        if target_limited
            && self.reverse[rel.index()]
                .get(&target)
                .is_some_and(|s| !s.is_empty())
        {
            return Err(OmsError::CardinalityViolation {
                relationship: rel,
                object: target,
            });
        }
        let inserted = self.forward[rel.index()]
            .get_or_insert_with(source, LinkSet::default)
            .insert(target);
        self.reverse[rel.index()]
            .get_or_insert_with(target, LinkSet::default)
            .insert(source);
        if inserted {
            self.record(Undo::Linked(rel, source, target));
        }
        Ok(())
    }

    /// Removes the link `source -> target` along `rel`.
    ///
    /// # Errors
    ///
    /// Returns [`OmsError::NoSuchLink`] if the link does not exist.
    pub fn unlink(&mut self, rel: RelId, source: ObjectId, target: ObjectId) -> OmsResult<()> {
        // Check first so a missing link never path-copies anything.
        let present = self.forward[rel.index()]
            .get(&source)
            .is_some_and(|s| s.contains(&target));
        if !present {
            return Err(OmsError::NoSuchLink {
                relationship: rel,
                source,
                target,
            });
        }
        self.forward[rel.index()]
            .get_mut(&source)
            .expect("checked above")
            .remove(&target);
        self.reverse[rel.index()]
            .get_mut(&target)
            .expect("reverse index mirrors forward index")
            .remove(&source);
        self.record(Undo::Unlinked(rel, source, target));
        Ok(())
    }

    /// Returns the targets linked from `source` along `rel`, sorted.
    pub fn targets(&self, rel: RelId, source: ObjectId) -> Vec<ObjectId> {
        self.forward[rel.index()]
            .get(&source)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Returns the sources linking to `target` along `rel`, sorted.
    pub fn sources(&self, rel: RelId, target: ObjectId) -> Vec<ObjectId> {
        self.reverse[rel.index()]
            .get(&target)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Returns `true` if the link `source -> target` exists along `rel`.
    pub fn linked(&self, rel: RelId, source: ObjectId, target: ObjectId) -> bool {
        self.forward[rel.index()]
            .get(&source)
            .is_some_and(|s| s.contains(&target))
    }

    /// Returns all live objects of `class`, in id order.
    pub fn objects_of(&self, class: ClassId) -> Vec<ObjectId> {
        self.objects
            .iter()
            .filter(|(_, o)| o.class == class)
            .map(|(id, _)| id)
            .collect()
    }

    /// Returns the first object of `class` whose attribute `name` holds
    /// exactly `value`, if any.
    pub fn find_by_attr(&self, class: ClassId, name: &str, value: &Value) -> Option<ObjectId> {
        self.objects
            .iter()
            .find(|(_, o)| o.class == class && o.attrs.get(name) == Some(value))
            .map(|(id, _)| id)
    }

    /// Iterates over all live object ids in id order.
    pub fn iter(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.objects.keys()
    }

    // --- structural-sharing diagnostics -----------------------------------

    /// Number of live `Arc` handles on the object behind `id` (the
    /// store's own handle included). Diagnostic probe for
    /// structural-sharing tests; not part of the stable API.
    #[doc(hidden)]
    pub fn object_strong_count(&self, id: ObjectId) -> Option<usize> {
        self.objects.get(&id).map(Arc::strong_count)
    }

    /// Returns `true` if `self` and `other` hold the *same allocation*
    /// for the object behind `id` — proof that a snapshot shares the
    /// object rather than owning a copy. Diagnostic probe for
    /// structural-sharing tests; not part of the stable API.
    #[doc(hidden)]
    pub fn object_shared_with(&self, other: &Database, id: ObjectId) -> bool {
        match (self.objects.get(&id), other.objects.get(&id)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// How many chunks of the link set `source -> *` along `rel` are
    /// the *same allocation* in `self` and `other`, and how many chunks
    /// the set has in `self` — proof that a write to a large set shared
    /// with a snapshot copied one chunk, not the set. `(0, 0)` when
    /// `source` has no set. Diagnostic probe for structural-sharing
    /// tests; not part of the stable API.
    #[doc(hidden)]
    pub fn link_chunks_shared_with(
        &self,
        other: &Database,
        rel: RelId,
        source: ObjectId,
    ) -> (usize, usize) {
        let empty = LinkSet::default();
        let theirs = other.forward[rel.index()].get(&source).unwrap_or(&empty);
        self.forward[rel.index()]
            .get(&source)
            .map_or((0, 0), |ours| ours.chunks_shared_with(theirs))
    }

    // --- transactions -----------------------------------------------------

    /// Opens a transaction; subsequent mutations are journalled.
    ///
    /// # Errors
    ///
    /// Returns [`OmsError::TransactionState`] if one is already open
    /// (transactions do not nest).
    pub fn begin(&mut self) -> OmsResult<()> {
        if self.journal.is_some() {
            return Err(OmsError::TransactionState("transaction already open"));
        }
        self.journal = Some(Vec::new());
        Ok(())
    }

    /// Commits the open transaction, making its mutations permanent.
    ///
    /// # Errors
    ///
    /// Returns [`OmsError::TransactionState`] if no transaction is open.
    pub fn commit(&mut self) -> OmsResult<()> {
        if self.journal.take().is_none() {
            return Err(OmsError::TransactionState("no transaction open"));
        }
        Ok(())
    }

    /// Aborts the open transaction, rolling back all its mutations.
    ///
    /// # Errors
    ///
    /// Returns [`OmsError::TransactionState`] if no transaction is open.
    pub fn abort(&mut self) -> OmsResult<()> {
        let journal = self
            .journal
            .take()
            .ok_or(OmsError::TransactionState("no transaction open"))?;
        for undo in journal.into_iter().rev() {
            match undo {
                Undo::Created(id) => {
                    // Any links added to this object were journalled after
                    // creation and have already been rolled back.
                    self.objects.remove(&id);
                }
                Undo::Deleted(id, obj, links) => {
                    self.objects.insert(id, obj);
                    for (rel, s, t) in links {
                        self.relink(rel, s, t);
                    }
                }
                Undo::AttrSet(id, name, old) => {
                    if let Some(obj) = self.objects.get_mut(&id) {
                        Arc::make_mut(obj).attrs.insert(name, old);
                    }
                }
                Undo::Linked(rel, s, t) => {
                    if let Some(set) = self.forward[rel.index()].get_mut(&s) {
                        set.remove(&t);
                    }
                    if let Some(set) = self.reverse[rel.index()].get_mut(&t) {
                        set.remove(&s);
                    }
                }
                Undo::Unlinked(rel, s, t) => {
                    self.relink(rel, s, t);
                }
            }
        }
        Ok(())
    }

    /// Runs `f` inside a transaction, committing on `Ok` and rolling
    /// back on `Err`.
    ///
    /// # Errors
    ///
    /// Propagates the closure's error after rollback, or a
    /// [`OmsError::TransactionState`] error from `begin`.
    pub fn transact<T>(&mut self, f: impl FnOnce(&mut Database) -> OmsResult<T>) -> OmsResult<T> {
        self.begin()?;
        match f(self) {
            Ok(v) => {
                self.commit().expect("transaction is open");
                Ok(v)
            }
            Err(e) => {
                self.abort().expect("transaction is open");
                Err(e)
            }
        }
    }

    /// Restores a link pair without journalling — abort-path helper.
    fn relink(&mut self, rel: RelId, s: ObjectId, t: ObjectId) {
        self.forward[rel.index()]
            .get_or_insert_with(s, LinkSet::default)
            .insert(t);
        self.reverse[rel.index()]
            .get_or_insert_with(t, LinkSet::default)
            .insert(s);
    }

    pub(crate) fn raw_parts(&self) -> RawParts<'_> {
        let mut links = Vec::new();
        for rel in self.schema.relationships() {
            for (s, ts) in &self.forward[rel.index()] {
                for t in ts.iter() {
                    links.push((rel, s, *t));
                }
            }
        }
        (&self.schema, &self.objects, links)
    }

    /// The persistent object trie, for the delta codec in
    /// [`persist`](crate::persist): diffing two databases walks the
    /// shared tries directly instead of materialising flat views.
    pub(crate) fn objects_map(&self) -> &PMap<ObjectId, Arc<Object>> {
        &self.objects
    }

    /// The forward link trie of one relationship (source → targets),
    /// for the delta codec.
    pub(crate) fn forward_map(&self, rel: RelId) -> &PMap<ObjectId, LinkSet> {
        &self.forward[rel.index()]
    }

    /// The id the next [`Database::create`] would allocate. Recorded in
    /// delta images so a rebuilt store allocates exactly like the live
    /// one (a full image only lower-bounds this via the max raw id).
    pub(crate) fn next_id_raw(&self) -> u64 {
        self.next_id
    }

    /// Restores the allocation counter; delta-apply only. Never lowers
    /// it below what the present objects already imply.
    pub(crate) fn set_next_id_raw(&mut self, next: u64) {
        self.next_id = self.next_id.max(next);
    }

    pub(crate) fn raw_insert(&mut self, raw_id: u64, class: ClassId) -> ObjectId {
        let id = ObjectId(raw_id);
        let attrs = self
            .schema
            .class(class)
            .attributes
            .iter()
            .map(|a| (Arc::clone(&a.name), Value::default_for(a.ty)))
            .collect();
        self.objects.insert(id, Arc::new(Object { class, attrs }));
        self.next_id = self.next_id.max(raw_id + 1);
        id
    }
}

/// Borrowed view of the store used by the persistence layer.
pub(crate) type RawParts<'a> = (
    &'a Schema,
    &'a PMap<ObjectId, Arc<Object>>,
    Vec<(RelId, ObjectId, ObjectId)>,
);

fn type_name(ty: crate::schema::AttrType) -> &'static str {
    match ty {
        crate::schema::AttrType::Text => "text",
        crate::schema::AttrType::Int => "int",
        crate::schema::AttrType::Bool => "bool",
        crate::schema::AttrType::Bytes => "bytes",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrType, SchemaBuilder};

    fn two_class_db() -> (Database, ClassId, ClassId, RelId, RelId) {
        let mut b = SchemaBuilder::new();
        let cell = b
            .class("Cell", &[("name", AttrType::Text), ("size", AttrType::Int)])
            .unwrap();
        let ver = b.class("Version", &[("n", AttrType::Int)]).unwrap();
        let has = b
            .relationship("has", cell, ver, Cardinality::OneToMany)
            .unwrap();
        let twin = b
            .relationship("twin", cell, cell, Cardinality::OneToOne)
            .unwrap();
        (Database::new(b.build()), cell, ver, has, twin)
    }

    #[test]
    fn snapshot_is_isolated_and_shares_blob_payloads() {
        let mut b = SchemaBuilder::new();
        let cell = b
            .class(
                "Cell",
                &[("name", AttrType::Text), ("data", AttrType::Bytes)],
            )
            .unwrap();
        let mut db = Database::new(b.build());
        let id = db.create(cell).unwrap();
        let payload = cad_vfs::Blob::from(b"netlist adder\n".to_vec());
        db.set(id, "data", Value::Bytes(payload.clone())).unwrap();

        let before = cad_vfs::Blob::materializations();
        let snap = db.snapshot();
        assert_eq!(
            cad_vfs::Blob::materializations(),
            before,
            "snapshotting must not materialize any payload bytes"
        );
        let shared = snap.get(id, "data").unwrap().as_blob().unwrap().clone();
        assert!(
            cad_vfs::Blob::ptr_eq(&payload, &shared),
            "snapshot shares the original payload allocation"
        );

        // Mutating the original afterwards must not leak into the copy.
        db.set(id, "name", Value::from("renamed")).unwrap();
        db.delete(id).unwrap();
        assert_eq!(snap.get(id, "name").unwrap().as_text(), Some(""));
        assert!(matches!(db.get(id, "name"), Err(OmsError::NoSuchObject(_))));
    }

    #[test]
    fn snapshot_is_structurally_shared_until_written() {
        let (mut db, cell, ..) = two_class_db();
        let sentinel = db.create(cell).unwrap();
        db.set(sentinel, "name", Value::from("sentinel")).unwrap();
        let others: Vec<ObjectId> = (0..50).map(|_| db.create(cell).unwrap()).collect();

        let snap = db.snapshot();
        assert!(
            db.object_shared_with(&snap, sentinel),
            "snapshotting copies no objects"
        );
        // Writing *another* object path-copies trie nodes only; the
        // sentinel allocation stays shared between live db and snapshot.
        db.set(others[0], "name", Value::from("touched")).unwrap();
        assert!(db.object_shared_with(&snap, sentinel));
        assert!(!db.object_shared_with(&snap, others[0]));
        // Writing the sentinel unshares exactly the sentinel.
        db.set(sentinel, "name", Value::from("changed")).unwrap();
        assert!(!db.object_shared_with(&snap, sentinel));
        assert!(db.object_shared_with(&snap, others[10]));
        assert_eq!(
            snap.get(sentinel, "name").unwrap().as_text(),
            Some("sentinel"),
            "the snapshot keeps the pre-write value"
        );
    }

    #[test]
    fn snapshot_drops_the_open_transaction() {
        let (mut db, cell, ..) = two_class_db();
        let id = db.create(cell).unwrap();
        db.begin().unwrap();
        db.set(id, "name", Value::from("mid-txn")).unwrap();
        let snap = db.snapshot();
        // The snapshot sees the uncommitted value but has no journal:
        // a fresh transaction opens cleanly.
        assert_eq!(snap.get(id, "name").unwrap().as_text(), Some("mid-txn"));
        let mut snap = snap;
        snap.begin().unwrap();
        snap.abort().unwrap();
        db.abort().unwrap();
        assert_eq!(db.get(id, "name").unwrap().as_text(), Some(""));
    }

    #[test]
    fn create_initialises_defaults() {
        let (mut db, cell, ..) = two_class_db();
        let id = db.create(cell).unwrap();
        assert_eq!(db.get(id, "name").unwrap().as_text(), Some(""));
        assert_eq!(db.get(id, "size").unwrap().as_int(), Some(0));
    }

    #[test]
    fn set_rejects_wrong_type() {
        let (mut db, cell, ..) = two_class_db();
        let id = db.create(cell).unwrap();
        assert!(matches!(
            db.set(id, "size", Value::from("big")),
            Err(OmsError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn set_rejects_undeclared_attribute() {
        let (mut db, cell, ..) = two_class_db();
        let id = db.create(cell).unwrap();
        assert!(matches!(
            db.set(id, "ghost", Value::from(1i64)),
            Err(OmsError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn stale_ids_do_not_alias() {
        let (mut db, cell, ..) = two_class_db();
        let a = db.create(cell).unwrap();
        db.delete(a).unwrap();
        let b = db.create(cell).unwrap();
        assert_ne!(a, b, "ids must not be reused");
        assert!(matches!(db.get(a, "name"), Err(OmsError::NoSuchObject(_))));
    }

    #[test]
    fn link_enforces_endpoint_classes() {
        let (mut db, cell, ver, has, _) = two_class_db();
        let c = db.create(cell).unwrap();
        let v = db.create(ver).unwrap();
        db.link(has, c, v).unwrap();
        assert!(matches!(
            db.link(has, v, c),
            Err(OmsError::EndpointClassMismatch { .. })
        ));
    }

    #[test]
    fn one_to_many_limits_target_side() {
        let (mut db, cell, ver, has, _) = two_class_db();
        let c1 = db.create(cell).unwrap();
        let c2 = db.create(cell).unwrap();
        let v = db.create(ver).unwrap();
        db.link(has, c1, v).unwrap();
        // v already has an owner; a second owner violates OneToMany.
        assert!(matches!(
            db.link(has, c2, v),
            Err(OmsError::CardinalityViolation { .. })
        ));
        // ...but c1 may own many versions.
        let v2 = db.create(ver).unwrap();
        db.link(has, c1, v2).unwrap();
        assert_eq!(db.targets(has, c1).len(), 2);
    }

    #[test]
    fn one_to_one_limits_both_sides() {
        let (mut db, cell, _, _, twin) = two_class_db();
        let a = db.create(cell).unwrap();
        let b = db.create(cell).unwrap();
        let c = db.create(cell).unwrap();
        db.link(twin, a, b).unwrap();
        assert!(db.link(twin, a, c).is_err(), "source side limited");
        assert!(db.link(twin, c, b).is_err(), "target side limited");
    }

    #[test]
    fn unlink_then_relink_allowed() {
        let (mut db, cell, _, _, twin) = two_class_db();
        let a = db.create(cell).unwrap();
        let b = db.create(cell).unwrap();
        db.link(twin, a, b).unwrap();
        db.unlink(twin, a, b).unwrap();
        assert!(!db.linked(twin, a, b));
        db.link(twin, a, b).unwrap();
    }

    #[test]
    fn unlink_missing_reports_no_such_link() {
        let (mut db, cell, _, _, twin) = two_class_db();
        let a = db.create(cell).unwrap();
        let b = db.create(cell).unwrap();
        assert!(matches!(
            db.unlink(twin, a, b),
            Err(OmsError::NoSuchLink { .. })
        ));
    }

    #[test]
    fn delete_refuses_linked_object() {
        let (mut db, cell, ver, has, _) = two_class_db();
        let c = db.create(cell).unwrap();
        let v = db.create(ver).unwrap();
        db.link(has, c, v).unwrap();
        assert!(matches!(db.delete(v), Err(OmsError::ObjectStillLinked(_))));
        db.unlink(has, c, v).unwrap();
        db.delete(v).unwrap();
    }

    #[test]
    fn navigation_is_sorted_and_symmetric() {
        let (mut db, cell, ver, has, _) = two_class_db();
        let c = db.create(cell).unwrap();
        let v1 = db.create(ver).unwrap();
        let v2 = db.create(ver).unwrap();
        db.link(has, c, v2).unwrap();
        db.link(has, c, v1).unwrap();
        assert_eq!(db.targets(has, c), vec![v1, v2]);
        assert_eq!(db.sources(has, v1), vec![c]);
    }

    #[test]
    fn find_by_attr_matches_exact_value() {
        let (mut db, cell, ..) = two_class_db();
        let a = db.create(cell).unwrap();
        db.set(a, "name", Value::from("adder")).unwrap();
        assert_eq!(
            db.find_by_attr(cell, "name", &Value::from("adder")),
            Some(a)
        );
        assert_eq!(db.find_by_attr(cell, "name", &Value::from("none")), None);
    }

    #[test]
    fn abort_rolls_back_everything() {
        let (mut db, cell, ver, has, _) = two_class_db();
        let keep = db.create(cell).unwrap();
        db.set(keep, "name", Value::from("before")).unwrap();

        db.begin().unwrap();
        let temp = db.create(ver).unwrap();
        db.link(has, keep, temp).unwrap();
        db.set(keep, "name", Value::from("after")).unwrap();
        db.unlink(has, keep, temp).unwrap();
        db.abort().unwrap();

        assert_eq!(db.get(keep, "name").unwrap().as_text(), Some("before"));
        assert!(matches!(db.get(temp, "n"), Err(OmsError::NoSuchObject(_))));
        assert!(db.targets(has, keep).is_empty());
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn commit_makes_mutations_permanent() {
        let (mut db, cell, ..) = two_class_db();
        db.begin().unwrap();
        let id = db.create(cell).unwrap();
        db.commit().unwrap();
        assert!(db.get(id, "name").is_ok());
    }

    #[test]
    fn transactions_do_not_nest() {
        let (mut db, ..) = two_class_db();
        db.begin().unwrap();
        assert!(matches!(db.begin(), Err(OmsError::TransactionState(_))));
        db.commit().unwrap();
        assert!(matches!(db.commit(), Err(OmsError::TransactionState(_))));
        assert!(matches!(db.abort(), Err(OmsError::TransactionState(_))));
    }

    #[test]
    fn transact_rolls_back_on_error() {
        let (mut db, cell, ..) = two_class_db();
        let before = db.len();
        let result: OmsResult<()> = db.transact(|db| {
            db.create(cell)?;
            Err(OmsError::TransactionState("forced failure"))
        });
        assert!(result.is_err());
        assert_eq!(db.len(), before);
    }

    #[test]
    fn transact_commits_on_success() {
        let (mut db, cell, ..) = two_class_db();
        let id = db.transact(|db| db.create(cell)).unwrap();
        assert!(db.get(id, "name").is_ok());
    }

    #[test]
    fn abort_of_unlink_restores_link() {
        let (mut db, cell, ver, has, _) = two_class_db();
        let c = db.create(cell).unwrap();
        let v = db.create(ver).unwrap();
        db.link(has, c, v).unwrap();
        db.begin().unwrap();
        db.unlink(has, c, v).unwrap();
        db.abort().unwrap();
        assert!(db.linked(has, c, v));
    }
}
