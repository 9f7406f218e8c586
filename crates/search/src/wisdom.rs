//! The wisdom format: best-known plans keyed by `(n, cost-backend name)`,
//! the FFTW-style cache behind [`crate::Planner`], and its JSON codec.
//!
//! A [`Wisdom`] entry records a plan, how the search chose it
//! ([`PlanProvenance`]), measured evidence (`measured_ns`), and the
//! [`CostObjective`] that gates its reuse ([`Tuning`]) — never executor
//! configuration. [`Wisdom::to_json`] / [`Wisdom::from_json`] are the
//! whole codec: the payload of every [`crate::store`] shard, and the
//! export/import path for shipping tuning between processes. The durable
//! form is the [`crate::ShardedStore`]; a single-document wisdom file
//! from an older build imports into one with
//! `store.save(&Wisdom::from_json(&text)?)`.
//!
//! ## Wisdom format history
//!
//! Every version below loads its plans, provenance, `measured_ns` and
//! `objective`, and re-serializes as version 7. Unknown fields are
//! ignored on load.
//!
//! - **Version 7** (current): `tuning` gained `stream`. Versions 1–7
//!   also carried the recorder's executor configuration (`fuse_budget`,
//!   `simd`, `relayout`, `recodelet`, `batch`, `stream`), which an
//!   importer used to replay per size. This build ignores those fields on
//!   read and no longer writes them, still as version 7: a version-7
//!   reader treats an absent field as "no choice recorded, the reader's
//!   policy applies", so older builds load its documents unchanged.
//! - **Version 6**: each entry gains two optional columns —
//!   `provenance` (the memo search's winning composition and candidate
//!   counts, a [`PlanProvenance`] record, so [`crate::Planner::explain`]
//!   survives a process restart) and `measured_ns` (measured wall-clock
//!   evidence for the entry's plan; the sharded store's merge keeps the
//!   measured-fastest entry per key — see [`crate::store`]).
//! - **Version 5**: [`Tuning`] gains the `objective` field — which
//!   [`CostObjective`] weighting the recorder's vectored cost backend
//!   collapsed its terms under when the entry's plan won, or absent when
//!   the backend ran with its default weights. A planner re-aimed via
//!   [`crate::Planner::with_objective`] treats entries recorded under a
//!   *different* objective as misses (the plan was optimal for a
//!   different collapse) while legacy planners keep reading every entry.
//! - **Version 4**: `tuning` gained `batch`.
//! - **Version 3**: each entry carries one nested `tuning` record, so
//!   new fields never become entry-level columns.
//! - **Version 2**: flat per-entry `fuse_budget` / `simd` / `relayout`
//!   columns, no `tuning`.
//! - **Version 1**: as version 2 without `relayout`.

use crate::cost::CostObjective;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use wht_core::{Plan, WhtError};

/// The nested `tuning` record of a wisdom entry: what gates the entry's
/// reuse. It holds no executor configuration — a planner always compiles
/// under its own [`wht_core::ExecPolicy`] (see [`crate::planner`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Tuning {
    /// The [`CostObjective`] the recorder's vectored cost backend was
    /// collapsed under when this plan won; `None` = default weights (or a
    /// pre-version-5 record). A planner aimed at a different objective
    /// must re-search, not replay a plan that was optimal for a
    /// different collapse.
    pub objective: Option<CostObjective>,
}

/// How a wisdom entry's plan won its memo search: the winning
/// composition and the candidate counts, lifted out of the searcher's
/// [`crate::memo::GroupProvenance`] into a serializable record so
/// [`crate::Planner::explain`] survives a process restart (wisdom
/// version 6).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanProvenance {
    /// The winning composition's part spans (`None`: the leaf codelet
    /// won).
    pub composition: Option<Vec<u32>>,
    /// Total candidates in the group when it was solved.
    pub candidates: u64,
    /// Candidates actually cost-evaluated.
    pub evaluated: u64,
    /// Candidates pruned unevaluated by the lower bound.
    pub pruned: u64,
    /// The winner's collapsed model cost.
    pub cost: f64,
}

impl PlanProvenance {
    /// One-line human-readable account of the recorded choice — the same
    /// shape as the live memo's [`crate::memo::Group::explain`], marked
    /// as a replay so a reader can tell a restart-survived record from a
    /// this-process deliberation.
    pub fn explain(&self, m: u32) -> String {
        let via = match &self.composition {
            Some(parts) => {
                let parts: Vec<String> = parts.iter().map(|p| p.to_string()).collect();
                format!("split[{}]", parts.join(","))
            }
            None => "leaf".to_string(),
        };
        format!(
            "2^{m}: cost={:.3} via {via}; evaluated {}/{} candidates ({} pruned) \
             [replayed from wisdom]",
            self.cost, self.evaluated, self.candidates, self.pruned
        )
    }
}

/// One best-known plan plus everything recorded with it: the reuse gate
/// ([`Tuning`]), the search provenance (version 6), and measured
/// wall-clock evidence when any exists.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WisdomRecord {
    pub(crate) plan: Plan,
    pub(crate) tuning: Tuning,
    pub(crate) provenance: Option<PlanProvenance>,
    pub(crate) measured_ns: Option<u64>,
}

/// Serialized wisdom entry, current ([`WISDOM_VERSION`]) shape: the plan
/// travels as its WHT-package grammar string (stable, human-readable,
/// validated on parse), the reuse gate as one nested [`Tuning`] record,
/// plus the optional provenance and measurement columns.
#[derive(Debug, Clone, Serialize)]
struct WisdomEntryOut {
    n: u32,
    backend: String,
    plan: String,
    tuning: Tuning,
    provenance: Option<PlanProvenance>,
    measured_ns: Option<u64>,
}

/// Permissive read-side entry covering every supported version: versions
/// 3–7 carry `tuning`, versions 1–2 do not (no objective recorded).
/// Unknown fields — including the executor fields older builds wrote —
/// are ignored by the JSON layer.
#[derive(Debug, Clone, Deserialize)]
struct WisdomEntryIn {
    n: u32,
    backend: String,
    plan: String,
    tuning: Option<Tuning>,
    provenance: Option<PlanProvenance>,
    measured_ns: Option<u64>,
}

/// Serialized wisdom store (write side).
#[derive(Debug, Clone, Serialize)]
struct WisdomFileOut {
    version: u32,
    entries: Vec<WisdomEntryOut>,
}

/// Serialized wisdom store (read side).
#[derive(Debug, Clone, Deserialize)]
struct WisdomFileIn {
    version: u32,
    entries: Vec<WisdomEntryIn>,
}

const WISDOM_VERSION: u32 = 7;

/// Oldest wisdom format [`Wisdom::from_json`] still reads (see the module
/// docs' format history).
const WISDOM_MIN_VERSION: u32 = 1;

/// Best-known plans keyed by `(n, cost-backend name)` — the FFTW-style
/// wisdom store behind [`crate::Planner`].
///
/// Keyed size-first so the hot lookup ([`Wisdom::get`]) borrows the
/// backend name instead of allocating a composite key per probe.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Wisdom {
    entries: HashMap<u32, HashMap<String, WisdomRecord>>,
}

impl Wisdom {
    /// Empty store.
    pub fn new() -> Self {
        Wisdom::default()
    }

    /// Number of `(size, backend)` entries.
    pub fn len(&self) -> usize {
        self.entries.values().map(HashMap::len).sum()
    }

    /// `true` when no wisdom has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Best known plan for size `2^n` under `backend`, if recorded.
    pub fn get(&self, n: u32, backend: &str) -> Option<&Plan> {
        Some(&self.entries.get(&n)?.get(backend)?.plan)
    }

    /// The [`Tuning`] recorded with the `(n, backend)` entry, `None` when
    /// no entry exists.
    pub fn tuning(&self, n: u32, backend: &str) -> Option<Tuning> {
        Some(self.entries.get(&n)?.get(backend)?.tuning)
    }

    /// Record (or overwrite) the best plan for `(n, backend)` with no
    /// objective recorded.
    ///
    /// # Errors
    /// [`WhtError::SizeTooLarge`] if `n > MAX_N`;
    /// [`WhtError::LengthMismatch`] if `plan.n() != n` — wisdom for size
    /// `n` must transform size-`2^n` inputs.
    pub fn insert(&mut self, n: u32, backend: &str, plan: Plan) -> Result<(), WhtError> {
        self.insert_with_tuning(n, backend, plan, Tuning::default())
    }

    /// Record (or overwrite) the best plan for `(n, backend)`, attaching
    /// the [`Tuning`] it was recorded under.
    ///
    /// # Errors
    /// As [`Wisdom::insert`].
    pub fn insert_with_tuning(
        &mut self,
        n: u32,
        backend: &str,
        plan: Plan,
        tuning: Tuning,
    ) -> Result<(), WhtError> {
        // `n` may come straight from a wisdom document: bound it before
        // the shift below.
        if n > wht_core::MAX_N {
            return Err(WhtError::SizeTooLarge { n });
        }
        if plan.n() != n {
            return Err(WhtError::LengthMismatch {
                expected: 1usize << n,
                got: plan.size(),
            });
        }
        self.entries.entry(n).or_default().insert(
            backend.to_string(),
            WisdomRecord {
                plan,
                tuning,
                provenance: None,
                measured_ns: None,
            },
        );
        Ok(())
    }

    /// The search provenance recorded with the `(n, backend)` entry —
    /// how its plan won — or `None` when no entry exists or the entry
    /// predates wisdom version 6.
    pub fn provenance(&self, n: u32, backend: &str) -> Option<&PlanProvenance> {
        self.entries.get(&n)?.get(backend)?.provenance.as_ref()
    }

    /// Attach search provenance to an existing `(n, backend)` entry.
    pub(crate) fn set_provenance(&mut self, n: u32, backend: &str, provenance: PlanProvenance) {
        if let Some(record) = self.entries.get_mut(&n).and_then(|b| b.get_mut(backend)) {
            record.provenance = Some(provenance);
        }
    }

    /// Measured wall-clock evidence (nanoseconds) recorded with the
    /// `(n, backend)` entry, if any. The sharded store's merge keeps the
    /// measured-fastest entry per key.
    pub fn measured_ns(&self, n: u32, backend: &str) -> Option<u64> {
        self.entries.get(&n)?.get(backend)?.measured_ns
    }

    /// Record measured wall-clock evidence for the `(n, backend)` entry's
    /// plan — the adaptive-feedback input to the store's
    /// measured-fastest merge.
    ///
    /// # Errors
    /// [`WhtError::InvalidConfig`] when no entry exists to attach the
    /// measurement to.
    pub fn record_measurement(&mut self, n: u32, backend: &str, ns: u64) -> Result<(), WhtError> {
        match self.entries.get_mut(&n).and_then(|b| b.get_mut(backend)) {
            Some(record) => {
                record.measured_ns = Some(ns);
                Ok(())
            }
            None => Err(WhtError::InvalidConfig(format!(
                "no wisdom entry for (n={n}, backend={backend}) to attach a measurement to"
            ))),
        }
    }

    /// Every `(n, backend)` key currently recorded (unsorted).
    pub fn entry_keys(&self) -> Vec<(u32, String)> {
        self.entries
            .iter()
            .flat_map(|(n, backends)| backends.keys().map(|b| (*n, b.clone())))
            .collect()
    }

    /// Consume the store into its records.
    pub(crate) fn into_records(self) -> impl Iterator<Item = (u32, String, WisdomRecord)> {
        self.entries.into_iter().flat_map(|(n, backends)| {
            backends
                .into_iter()
                .map(move |(backend, record)| (n, backend, record))
        })
    }

    /// Insert a full record, replacing any existing `(n, backend)` entry.
    pub(crate) fn insert_record(&mut self, n: u32, backend: &str, record: WisdomRecord) {
        self.entries
            .entry(n)
            .or_default()
            .insert(backend.to_string(), record);
    }

    /// The single `(n, backend)` entry rendered as a current-version
    /// wisdom JSON document — the payload of one store shard.
    pub(crate) fn entry_json(&self, n: u32, backend: &str) -> Option<String> {
        let record = self.entries.get(&n)?.get(backend)?;
        let file = WisdomFileOut {
            version: WISDOM_VERSION,
            entries: vec![WisdomEntryOut {
                n,
                backend: backend.to_string(),
                plan: record.plan.to_string(),
                tuning: record.tuning,
                provenance: record.provenance.clone(),
                measured_ns: record.measured_ns,
            }],
        };
        Some(serde_json::to_string_pretty(&file).expect("wisdom serialization is infallible"))
    }

    /// Merge `incoming` into this store, key by key: missing entries are
    /// adopted outright, and an existing entry is replaced only when the
    /// incoming one carries **strictly better measured evidence** (a
    /// faster `measured_ns`, or any measurement where the incumbent has
    /// none). Without evidence the incumbent wins — absorbing a store
    /// must never silently discard this process's own fresher tuning.
    pub fn absorb(&mut self, incoming: Wisdom) {
        for (n, backend, record) in incoming.into_records() {
            let replace = match self.entries.get(&n).and_then(|b| b.get(&backend)) {
                None => true,
                Some(existing) => crate::store::prefer_candidate(
                    record.measured_ns,
                    0,
                    existing.measured_ns,
                    u64::MAX,
                ),
            };
            if replace {
                self.insert_record(n, &backend, record);
            }
        }
    }

    /// Render the store as JSON (entries sorted for determinism), in the
    /// current format (the newest version in the module docs' format
    /// history).
    pub fn to_json(&self) -> String {
        let mut entries: Vec<WisdomEntryOut> = self
            .entries
            .iter()
            .flat_map(|(n, backends)| {
                backends.iter().map(|(backend, record)| WisdomEntryOut {
                    n: *n,
                    backend: backend.clone(),
                    plan: record.plan.to_string(),
                    tuning: record.tuning,
                    provenance: record.provenance.clone(),
                    measured_ns: record.measured_ns,
                })
            })
            .collect();
        entries.sort_by(|a, b| (a.n, &a.backend).cmp(&(b.n, &b.backend)));
        serde_json::to_string_pretty(&WisdomFileOut {
            version: WISDOM_VERSION,
            entries,
        })
        .expect("wisdom serialization is infallible")
    }

    /// Parse a store from JSON, validating every plan. Version-1 through
    /// version-6 stores load transparently (see the module docs' format
    /// history) and re-serialize as the current version.
    ///
    /// # Errors
    /// [`WhtError::InvalidConfig`] on malformed JSON or a version
    /// mismatch; [`WhtError::Parse`] / structural errors on a bad plan
    /// string.
    pub fn from_json(json: &str) -> Result<Self, WhtError> {
        let file: WisdomFileIn = serde_json::from_str(json)
            .map_err(|e| WhtError::InvalidConfig(format!("wisdom JSON: {e}")))?;
        if !(WISDOM_MIN_VERSION..=WISDOM_VERSION).contains(&file.version) {
            return Err(WhtError::InvalidConfig(format!(
                "wisdom version {} unsupported (expected {WISDOM_MIN_VERSION}..={WISDOM_VERSION})",
                file.version
            )));
        }
        let mut wisdom = Wisdom::new();
        for entry in file.entries {
            let plan: Plan = entry.plan.parse()?;
            let tuning = entry.tuning.unwrap_or_default();
            wisdom.insert_with_tuning(entry.n, &entry.backend, plan, tuning)?;
            if let Some(provenance) = entry.provenance {
                wisdom.set_provenance(entry.n, &entry.backend, provenance);
            }
            if let Some(ns) = entry.measured_ns {
                wisdom.record_measurement(entry.n, &entry.backend, ns)?;
            }
        }
        Ok(wisdom)
    }
}

/// The declared version of a wisdom document this build cannot read, if
/// that is what is wrong with it (`None`: the version is fine or the
/// document is too damaged to tell).
pub(crate) fn unsupported_version(text: &str) -> Option<u32> {
    #[derive(Debug, Clone, Deserialize)]
    struct VersionOnly {
        version: u32,
    }
    let v: VersionOnly = serde_json::from_str(text).ok()?;
    if (WISDOM_MIN_VERSION..=WISDOM_VERSION).contains(&v.version) {
        None
    } else {
        Some(v.version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_1_wisdom_migrates_and_round_trips_as_current() {
        // A version-1 store (flat executor columns, no tuning record)
        // must load its plan with no objective recorded, and re-serialize
        // as the current version without the executor columns.
        let legacy = "{\"version\":1,\"entries\":[{\"n\":4,\"backend\":\"x\",\
                       \"plan\":\"split[small[2],small[2]]\",\"fuse_budget\":512,\
                       \"simd\":true}]}";
        let w = Wisdom::from_json(legacy).unwrap();
        assert_eq!(
            w.get(4, "x").unwrap().to_string(),
            "split[small[2],small[2]]"
        );
        assert_eq!(w.tuning(4, "x"), Some(Tuning::default()));
        let json = w.to_json();
        assert!(json.contains("\"version\": 7"), "{json}");
        assert!(json.contains("\"tuning\""), "{json}");
        assert!(
            !json.contains("fuse_budget") && !json.contains("simd"),
            "{json}"
        );
        let back = Wisdom::from_json(&json).unwrap();
        assert_eq!(back, w);
        // Future versions stay rejected.
        assert!(Wisdom::from_json("{\"version\":8,\"entries\":[]}").is_err());
    }

    #[test]
    fn unknown_json_fields_are_tolerated() {
        // Forward compatibility: a store written by a newer build with
        // extra fields must still load here — unknown fields are ignored,
        // known ones are honored.
        let future = "{\"version\":7,\"future_knob\":\"xyz\",\"entries\":[{\"n\":4,\
                      \"backend\":\"x\",\"plan\":\"split[small[2],small[2]]\",\
                      \"future_column\":1,\"tuning\":{\"prefetch_distance\":8,\
                      \"objective\":\"Memory\"},\"measured_ns\":77}]}";
        let w = Wisdom::from_json(future).unwrap();
        assert_eq!(
            w.get(4, "x").unwrap().to_string(),
            "split[small[2],small[2]]"
        );
        assert_eq!(
            w.tuning(4, "x").unwrap().objective,
            Some(CostObjective::Memory)
        );
        assert_eq!(w.measured_ns(4, "x"), Some(77));
    }

    #[test]
    fn malformed_wisdom_rejected() {
        assert!(Wisdom::from_json("not json").is_err());
        assert!(Wisdom::from_json("{\"version\":99,\"entries\":[]}").is_err());
        let bad_plan =
            "{\"version\":1,\"entries\":[{\"n\":4,\"backend\":\"x\",\"plan\":\"small[\"}]}";
        assert!(Wisdom::from_json(bad_plan).is_err());
        let wrong_size =
            "{\"version\":1,\"entries\":[{\"n\":4,\"backend\":\"x\",\"plan\":\"small[3]\"}]}";
        assert!(Wisdom::from_json(wrong_size).is_err());
    }
}
