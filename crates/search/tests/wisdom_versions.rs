//! Compatibility and corruption coverage for the full wisdom version
//! corpus, through the store's durable path: every historical document
//! format (v1–v6, plus current v7) written as a shard loads through
//! `ShardedStore::load` and re-serializes as version 7 without executor
//! fields; a truncated, bit-flipped, future-version or invalid shard is
//! refused with exactly one `StoreDiagnostic` of the right kind and is
//! never partially applied.

use std::fs;
use std::path::{Path, PathBuf};
use wht_core::Plan;
use wht_search::{
    encode_shard, failpoints, InstructionCost, Planner, ShardedStore, StoreDiagnostic, StoreLoad,
    Wisdom,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("wht_wisdom_versions_{}_{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Write `file` (whole shard bytes) as `{name}.shard` in a fresh store
/// directory and load that store.
fn load_shard_file(dir: &Path, name: &str, file: &[u8]) -> StoreLoad {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).unwrap();
    fs::write(dir.join(format!("{name}.shard")), file).unwrap();
    ShardedStore::open(dir).unwrap().load()
}

/// The one diagnostic a refused shard must yield, with nothing applied
/// and the file moved out of the way.
fn refused_once(tag: &str, dir: &Path, loaded: &StoreLoad) -> StoreDiagnostic {
    assert!(
        loaded.wisdom.is_empty(),
        "[{tag}] nothing partially applied"
    );
    assert_eq!(loaded.shards_loaded, 0, "[{tag}]");
    assert_eq!(
        loaded.diagnostics.len(),
        1,
        "[{tag}] {:?}",
        loaded.diagnostics
    );
    assert_eq!(loaded.quarantined, 1, "[{tag}]");
    assert!(
        !dir.join(format!("{tag}.shard")).exists(),
        "[{tag}] damaged shard quarantined"
    );
    loaded.diagnostics[0].clone()
}

/// One handcrafted, valid document per historical format.
fn corpus() -> Vec<(&'static str, String)> {
    vec![
        (
            "v1-flat",
            "{\"version\":1,\"entries\":[{\"n\":4,\"backend\":\"x\",\
             \"plan\":\"split[small[2],small[2]]\",\"fuse_budget\":512,\"simd\":true}]}"
                .to_string(),
        ),
        (
            "v2-flat-relayout",
            "{\"version\":2,\"entries\":[{\"n\":4,\"backend\":\"x\",\
             \"plan\":\"split[small[2],small[2]]\",\"fuse_budget\":64,\"simd\":true,\
             \"relayout\":512}]}"
                .to_string(),
        ),
        (
            "v3-nested-tuning",
            "{\"version\":3,\"entries\":[{\"n\":4,\"backend\":\"x\",\
             \"plan\":\"split[small[2],small[2]]\",\"tuning\":{\"fuse_budget\":4096,\
             \"simd\":true,\"relayout\":0,\"recodelet\":true}}]}"
                .to_string(),
        ),
        (
            "v4-batch",
            "{\"version\":4,\"entries\":[{\"n\":4,\"backend\":\"x\",\
             \"plan\":\"split[small[2],small[2]]\",\"tuning\":{\"fuse_budget\":4096,\
             \"simd\":true,\"relayout\":0,\"recodelet\":true,\"batch\":16}}]}"
                .to_string(),
        ),
        (
            "v5-objective",
            "{\"version\":5,\"entries\":[{\"n\":4,\"backend\":\"x\",\
             \"plan\":\"split[small[2],small[2]]\",\"tuning\":{\"fuse_budget\":4096,\
             \"simd\":true,\"relayout\":0,\"recodelet\":true,\"batch\":0,\
             \"objective\":\"Latency\"}}]}"
                .to_string(),
        ),
        (
            "v6-provenance",
            "{\"version\":6,\"entries\":[{\"n\":4,\"backend\":\"x\",\
             \"plan\":\"split[small[2],small[2]]\",\"tuning\":{\"fuse_budget\":4096,\
             \"simd\":true},\"provenance\":{\"composition\":[2,2],\"candidates\":8,\
             \"evaluated\":5,\"pruned\":3,\"cost\":42.5},\"measured_ns\":910}]}"
                .to_string(),
        ),
        (
            "v7-stream",
            "{\"version\":7,\"entries\":[{\"n\":4,\"backend\":\"x\",\
             \"plan\":\"split[small[2],small[2]]\",\"tuning\":{\"fuse_budget\":4096,\
             \"simd\":true,\"stream\":true},\"measured_ns\":880}]}"
                .to_string(),
        ),
    ]
}

#[test]
fn every_corpus_blob_loads_clean_as_a_control() {
    let _isolate = failpoints::scope();
    let dir = temp_dir("control");
    for (tag, blob) in corpus() {
        let loaded = load_shard_file(&dir, tag, &encode_shard(1, blob.as_bytes()));
        assert!(
            loaded.diagnostics.is_empty(),
            "[{tag}] {:?}",
            loaded.diagnostics
        );
        assert_eq!(loaded.shards_loaded, 1, "[{tag}]");
        let w = loaded.wisdom;
        assert_eq!(
            w.get(4, "x").unwrap().to_string(),
            "split[small[2],small[2]]",
            "[{tag}]"
        );
        assert!(w.to_json().contains("\"version\": 7"), "[{tag}]");
        match tag {
            // The v6 document restores its extras.
            "v6-provenance" => {
                assert_eq!(w.measured_ns(4, "x"), Some(910));
                let p = w.provenance(4, "x").expect("provenance restored");
                assert_eq!(p.composition.as_deref(), Some(&[2u32, 2][..]));
                assert_eq!((p.candidates, p.evaluated, p.pruned), (8, 5, 3));
            }
            // The v7 document's executor fields are ignored; its
            // measurement is restored.
            "v7-stream" => assert_eq!(w.measured_ns(4, "x"), Some(880)),
            _ => {}
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The executor fields older builds wrote (see the format history in
/// `wht_search::wisdom`); this build reads past them and never writes
/// them.
const EXECUTOR_FIELDS: [&str; 6] = [
    "fuse_budget",
    "simd",
    "relayout",
    "recodelet",
    "batch",
    "stream",
];

#[test]
fn this_build_writes_version_7_without_executor_fields() {
    let mut planner = Planner::new(InstructionCost::default());
    planner.plan(10).unwrap();
    let mut documents = vec![planner.wisdom().to_json()];
    for (tag, blob) in corpus() {
        let w = Wisdom::from_json(&blob).unwrap_or_else(|e| panic!("[{tag}] {e}"));
        documents.push(w.to_json());
    }
    for json in documents {
        assert!(json.contains("\"version\": 7"), "{json}");
        for field in EXECUTOR_FIELDS {
            assert!(!json.contains(&format!("\"{field}\"")), "{field}: {json}");
        }
        let w = Wisdom::from_json(&json).unwrap();
        assert_eq!(Wisdom::from_json(&w.to_json()).unwrap(), w);
        assert_eq!(w.to_json(), json, "re-serialization is stable");
    }
}

#[test]
fn out_of_range_sizes_are_rejected_without_panicking() {
    let _isolate = failpoints::scope();
    let blob = "{\"version\":7,\"entries\":[{\"n\":70,\"backend\":\"x\",\"plan\":\"small[2]\"}]}";
    assert!(Wisdom::from_json(blob).is_err());
    let dir = temp_dir("range");
    let loaded = load_shard_file(&dir, "n70", &encode_shard(1, blob.as_bytes()));
    let diag = refused_once("n70", &dir, &loaded);
    assert!(
        matches!(diag, StoreDiagnostic::Corrupt { .. }),
        "got {diag}"
    );
    let _ = fs::remove_dir_all(&dir);
    let plan = Plan::iterative(2).unwrap();
    assert!(Wisdom::new().insert(70, "x", plan).is_err());
}

#[test]
fn truncated_shards_of_every_version_classify_as_truncated() {
    let _isolate = failpoints::scope();
    let dir = temp_dir("trunc");
    for (tag, blob) in corpus() {
        let file = encode_shard(1, blob.as_bytes());
        let cut = &file[..file.len() - blob.len() / 2];
        let loaded = load_shard_file(&dir, tag, cut);
        let diag = refused_once(tag, &dir, &loaded);
        assert!(
            matches!(diag, StoreDiagnostic::Truncated { .. }),
            "[{tag}] got {diag}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bitflipped_shards_of_every_version_classify_as_corrupt() {
    let _isolate = failpoints::scope();
    let dir = temp_dir("flip");
    for (tag, blob) in corpus() {
        // Flip a structural character: the first '{' of the entries
        // array becomes garbage, breaking JSON without shortening it.
        let flipped = blob.replacen("[{", "[?", 1);
        assert_eq!(flipped.len(), blob.len());
        // On disk under the intact document's checksum, the header
        // catches the flip before the payload is parsed...
        let mut file = encode_shard(1, blob.as_bytes());
        let payload_at = file.len() - blob.len();
        file[payload_at..].copy_from_slice(flipped.as_bytes());
        let loaded = load_shard_file(&dir, tag, &file);
        let diag = refused_once(tag, &dir, &loaded);
        assert!(
            matches!(diag, StoreDiagnostic::ChecksumMismatch { .. }),
            "[{tag}] got {diag}"
        );
        // ...and the same flip re-encoded with a valid checksum fails
        // the wisdom parse instead.
        let loaded = load_shard_file(&dir, tag, &encode_shard(1, flipped.as_bytes()));
        let diag = refused_once(tag, &dir, &loaded);
        assert!(
            matches!(diag, StoreDiagnostic::Corrupt { .. }),
            "[{tag}] got {diag}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn future_versions_classify_as_version_unknown() {
    let _isolate = failpoints::scope();
    let dir = temp_dir("future");
    for (tag, blob) in corpus() {
        let future = blob.replacen(
            &format!("\"version\":{}", &blob[11..12]),
            "\"version\":99",
            1,
        );
        assert!(future.contains("\"version\":99"), "[{tag}] rewrite applied");
        let loaded = load_shard_file(&dir, tag, &encode_shard(1, future.as_bytes()));
        match refused_once(tag, &dir, &loaded) {
            StoreDiagnostic::VersionUnknown { version, .. } => {
                assert_eq!(version, 99, "[{tag}]")
            }
            other => panic!("[{tag}] expected VersionUnknown, got {other}"),
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_blob_with_one_bad_entry_is_never_partially_applied() {
    // Two entries, the second carrying an invalid plan: the shard fails
    // as a whole (its good first entry is not applied), while a
    // neighbouring intact shard still loads.
    let _isolate = failpoints::scope();
    let blob = "{\"version\":1,\"entries\":[\
                 {\"n\":4,\"backend\":\"x\",\"plan\":\"split[small[2],small[2]]\"},\
                 {\"n\":3,\"backend\":\"x\",\"plan\":\"small[\"}]}";
    assert!(Wisdom::from_json(blob).is_err());
    let dir = temp_dir("partial");
    let neighbour = "{\"version\":7,\"entries\":[{\"n\":5,\"backend\":\"x\",\
                     \"plan\":\"split[small[2],small[3]]\"}]}";
    fs::write(dir.join("n05.shard"), encode_shard(1, neighbour.as_bytes())).unwrap();
    fs::write(
        dir.join("two-entry.shard"),
        encode_shard(1, blob.as_bytes()),
    )
    .unwrap();
    let loaded = ShardedStore::open(&dir).unwrap().load();
    assert!(
        loaded.wisdom.get(4, "x").is_none(),
        "the good first entry must not survive a bad shard"
    );
    assert!(loaded.wisdom.get(5, "x").is_some(), "the neighbour loads");
    assert_eq!(loaded.wisdom.len(), 1);
    assert_eq!(loaded.shards_loaded, 1);
    assert_eq!(loaded.diagnostics.len(), 1, "{:?}", loaded.diagnostics);
    assert!(
        matches!(loaded.diagnostics[0], StoreDiagnostic::Corrupt { .. }),
        "got {}",
        loaded.diagnostics[0]
    );
    let _ = fs::remove_dir_all(&dir);
}
