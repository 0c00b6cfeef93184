//! # oms — the object-oriented database kernel
//!
//! A from-scratch model of the *"common object-oriented database OMS"*
//! \[Meck92\] in which JCF 3.0 stores all of its metadata and design data
//! (paper §2.1).
//!
//! The kernel provides:
//!
//! * a typed [`Schema`] of classes, attributes and binary relationships
//!   with cardinality — the *metadata are completely under the control
//!   of the framework*;
//! * a [`Database`] of objects whose attribute types, link endpoint
//!   classes and link cardinalities are enforced on every mutation;
//! * journal-based transactions ([`Database::begin`] /
//!   [`Database::commit`] / [`Database::abort`]) so desktop operations
//!   are all-or-nothing;
//! * [`VersionGraph`] — acyclic derivation histories used for cell
//!   versions, variants and design-object versions;
//! * [`persist`] — checkpointing the store to the
//!   [`cad_vfs`] virtual UNIX file system, the only way data crosses
//!   the database boundary (the paper stresses that no direct
//!   interface to the internal structures exists).
//!
//! # Examples
//!
//! ```
//! use oms::{AttrType, Cardinality, Database, SchemaBuilder, Value};
//!
//! # fn main() -> Result<(), oms::OmsError> {
//! let mut b = SchemaBuilder::new();
//! let project = b.class("Project", &[("name", AttrType::Text)])?;
//! let cell = b.class("Cell", &[("name", AttrType::Text)])?;
//! let has_cell = b.relationship("has_cell", project, cell, Cardinality::OneToMany)?;
//!
//! let mut db = Database::new(b.build());
//! let (p, c) = db.transact(|db| {
//!     let p = db.create(project)?;
//!     db.set(p, "name", Value::from("alu16"))?;
//!     let c = db.create(cell)?;
//!     db.set(c, "name", Value::from("adder"))?;
//!     db.link(has_cell, p, c)?;
//!     Ok((p, c))
//! })?;
//! assert_eq!(db.targets(has_cell, p), vec![c]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::redundant_clone)]

mod error;
pub mod graph;
mod linkset;
pub mod persist;
pub mod pmap;
mod schema;
mod store;
mod value;
mod version;

pub use error::{OmsError, OmsResult};
pub use pmap::{DiffEntry, PMap, PmapKey};
pub use schema::{
    AttrDef, AttrType, Cardinality, ClassDef, ClassId, RelDef, RelId, Schema, SchemaBuilder,
};
pub use store::{Database, ObjectId};
pub use value::Value;
pub use version::VersionGraph;
