//! Seeded input generation.
//!
//! Every name and payload a workload sends is drawn here from the
//! `--seed` argument, before any server exists: the same seed gives a
//! byte-identical [`Inputs`], a different seed gives different names
//! and payloads. Ids are not part of the inputs — they are resolved at
//! run time from the events the server returns.

use cad_vfs::Blob;
use design_data::{format, generate, Logic, Waveforms};

/// The workloads the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two designers loop reserve → schematic → simulate → browse ×2 →
    /// read → publish over a preloaded catalog.
    DesignCycle,
    /// Admin connections pipeline a catalog build from empty.
    CatalogBuild,
    /// One reader queries retained history beside one committing designer.
    HistoryAudit,
}

impl Workload {
    /// All workloads, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::DesignCycle,
        Workload::CatalogBuild,
        Workload::HistoryAudit,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DesignCycle => "design-cycle",
            Workload::CatalogBuild => "catalog-build",
            Workload::HistoryAudit => "history-audit",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Cells per project, in both the preloaded and the built catalog.
pub const CELLS_PER_PROJECT: usize = 4;
/// Projects in the catalog preloaded under `design-cycle` and
/// `history-audit` (about 3k OMS objects).
pub const PRELOAD_PROJECTS: usize = 250;
/// Projects one `catalog-build` pass creates (9 ops each).
pub const CATALOG_PROJECTS: usize = 750;
/// Cell versions each designer cycles over.
pub const OWN_CELLS: usize = 8;
/// Payloads in each designer's pool; coprime with [`OWN_CELLS`] so a
/// cell version never sees the same netlist twice in a row.
pub const POOL: usize = 9;
/// Published cell versions the `history-audit` reader queries.
pub const AUDIT_CELLS: usize = 16;
/// Gates of a generated netlist (about 13 KB of schematic text).
pub const NETLIST_GATES: usize = 170;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }

    /// A short lowercase word.
    pub fn word(&mut self) -> String {
        (0..6)
            .map(|_| char::from(b'a' + self.below(26) as u8))
            .collect()
    }
}

/// One project of a catalog: its name and its cells' names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProjectSpec {
    /// The project (and FMCAD library) name.
    pub name: String,
    /// The cell names.
    pub cells: Vec<String>,
}

/// One designer: user name, own cells and payload pools.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignerSpec {
    /// The desktop user name.
    pub name: String,
    /// Cells (one cell version each) the designer cycles over.
    pub cells: Vec<String>,
    /// Schematic payloads, used round-robin.
    pub netlists: Vec<Blob>,
    /// Waveform payloads, used round-robin.
    pub waveforms: Vec<Blob>,
}

/// Everything a workload sends, drawn from the seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// The seed.
    pub seed: u64,
    /// Team name.
    pub team: String,
    /// Standard-flow name.
    pub flow: String,
    /// The preloaded catalog, or for `catalog-build` the catalog built.
    pub catalog: Vec<ProjectSpec>,
    /// The project holding the designers' and the audit cells.
    pub desk: String,
    /// Designers (`design-cycle`: two; `history-audit`: the writer).
    pub designers: Vec<DesignerSpec>,
    /// `history-audit`: the reader's user name.
    pub auditor: String,
    /// `history-audit`: cells published during preload, with the
    /// schematic and waveform each carries.
    pub audit: Vec<(String, Blob, Blob)>,
}

fn netlist(rng: &mut Rng) -> Blob {
    let design = generate::random_logic(NETLIST_GATES, rng.next_u64());
    format::write_netlist(&design.netlists[&design.top])
        .into_bytes()
        .into()
}

fn waveform(rng: &mut Rng) -> Blob {
    let mut waves = Waveforms::new();
    for s in 0..8 {
        let signal = format!("{}{s}", rng.word());
        let mut t = 0;
        for _ in 0..24 {
            t += 1 + rng.below(40);
            let value = match rng.below(4) {
                0 => Logic::Zero,
                1 => Logic::One,
                2 => Logic::X,
                _ => Logic::Z,
            };
            waves.record(&signal, t, value);
        }
    }
    format::write_waveforms(&waves).into_bytes().into()
}

fn catalog(rng: &mut Rng, tag: &str, projects: usize) -> Vec<ProjectSpec> {
    (0..projects)
        .map(|p| ProjectSpec {
            name: format!("{tag}-{}-{p}", rng.word()),
            cells: (0..CELLS_PER_PROJECT)
                .map(|c| format!("{}{c}", rng.word()))
                .collect(),
        })
        .collect()
}

fn designer(rng: &mut Rng, tag: &str, index: usize, cells: usize) -> DesignerSpec {
    DesignerSpec {
        name: format!("{tag}-{}-{index}", rng.word()),
        cells: (0..cells)
            .map(|c| format!("d{index}{}{c}", rng.word()))
            .collect(),
        netlists: (0..POOL).map(|_| netlist(rng)).collect(),
        waveforms: (0..POOL).map(|_| waveform(rng)).collect(),
    }
}

impl Inputs {
    /// Draws the inputs of `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let mut rng = Rng::new(seed ^ 0x5e7e_be4c_0000_0000);
        let tag = rng.word();
        let team = format!("{tag}-team");
        let flow = format!("{tag}-flow");
        let desk = format!("{tag}-desk");
        let mut inputs = Inputs {
            workload,
            seed,
            team,
            flow,
            catalog: Vec::new(),
            desk,
            designers: Vec::new(),
            auditor: String::new(),
            audit: Vec::new(),
        };
        match workload {
            Workload::CatalogBuild => {
                inputs.catalog = catalog(&mut rng, &tag, CATALOG_PROJECTS);
            }
            Workload::DesignCycle => {
                inputs.catalog = catalog(&mut rng, &tag, PRELOAD_PROJECTS);
                inputs.designers = (0..2)
                    .map(|d| designer(&mut rng, &tag, d, OWN_CELLS))
                    .collect();
            }
            Workload::HistoryAudit => {
                inputs.catalog = catalog(&mut rng, &tag, PRELOAD_PROJECTS);
                inputs.designers = vec![designer(&mut rng, &tag, 0, OWN_CELLS)];
                inputs.auditor = format!("{tag}-{}-audit", rng.word());
                inputs.audit = (0..AUDIT_CELLS)
                    .map(|c| {
                        let cell = format!("{}a{c}", rng.word());
                        (cell, netlist(&mut rng), waveform(&mut rng))
                    })
                    .collect();
            }
        }
        inputs
    }

    /// A canonical byte serialisation of the inputs.
    fn canonical(&self) -> Vec<u8> {
        fn put(out: &mut Vec<u8>, bytes: &[u8]) {
            out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            out.extend_from_slice(bytes);
        }
        let mut out = Vec::new();
        put(&mut out, self.workload.name().as_bytes());
        put(&mut out, &self.seed.to_le_bytes());
        put(&mut out, self.team.as_bytes());
        put(&mut out, self.flow.as_bytes());
        put(&mut out, self.desk.as_bytes());
        for p in &self.catalog {
            put(&mut out, p.name.as_bytes());
            for c in &p.cells {
                put(&mut out, c.as_bytes());
            }
        }
        for d in &self.designers {
            put(&mut out, d.name.as_bytes());
            for c in &d.cells {
                put(&mut out, c.as_bytes());
            }
            for b in d.netlists.iter().chain(&d.waveforms) {
                put(&mut out, b.as_slice());
            }
        }
        put(&mut out, self.auditor.as_bytes());
        for (cell, sch, wave) in &self.audit {
            put(&mut out, cell.as_bytes());
            put(&mut out, sch.as_slice());
            put(&mut out, wave.as_slice());
        }
        out
    }

    /// FNV-1a 64 of the canonical serialisation, as 16 hex digits.
    pub fn digest(&self) -> String {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.canonical() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{hash:016x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs() {
        for w in Workload::ALL {
            let a = Inputs::generate(w, 7);
            let b = Inputs::generate(w, 7);
            assert_eq!(a.canonical(), b.canonical(), "{}", w.name());
            assert_eq!(a.digest(), b.digest());
        }
    }

    #[test]
    fn another_seed_changes_names_and_payloads() {
        for w in Workload::ALL {
            let a = Inputs::generate(w, 7);
            let b = Inputs::generate(w, 8);
            assert_ne!(a.digest(), b.digest(), "{}", w.name());
            assert_ne!(a.catalog[0].name, b.catalog[0].name);
            assert_ne!(a.catalog[0].cells, b.catalog[0].cells);
            for (da, db) in a.designers.iter().zip(&b.designers) {
                assert_ne!(da.name, db.name);
                assert_ne!(da.netlists[0], db.netlists[0]);
                assert_ne!(da.waveforms[0], db.waveforms[0]);
            }
        }
    }

    #[test]
    fn names_are_unique_and_payloads_parse() {
        let inputs = Inputs::generate(Workload::CatalogBuild, 3);
        let mut names: Vec<&str> = inputs.catalog.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CATALOG_PROJECTS);
        let inputs = Inputs::generate(Workload::DesignCycle, 3);
        for d in &inputs.designers {
            for n in &d.netlists {
                assert!(
                    (10_000..16_000).contains(&n.len()),
                    "netlist of {} bytes",
                    n.len()
                );
                let text = std::str::from_utf8(n.as_slice()).unwrap();
                format::parse_netlist(text).unwrap();
            }
            for w in &d.waveforms {
                let text = std::str::from_utf8(w.as_slice()).unwrap();
                format::parse_waveforms(text).unwrap();
            }
        }
    }
}
