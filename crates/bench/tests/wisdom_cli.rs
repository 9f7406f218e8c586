//! `wht-wisdom` end to end: the read-only commands leave the store
//! exactly as they found it, and refuse a store directory that does not
//! exist instead of creating it.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};
use wht_core::Plan;
use wht_search::{ShardedStore, Wisdom};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wht_wisdom_cli_{}_{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn wht_wisdom(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wht-wisdom"))
        .args(args)
        .output()
        .expect("wht-wisdom runs")
}

#[test]
fn inspect_leaves_a_damaged_shard_in_place() {
    let dir = temp_dir("inspect");
    let store = ShardedStore::open(&dir).unwrap().with_host("cli");
    let mut wisdom = Wisdom::new();
    wisdom.insert(3, "x", Plan::iterative(3).unwrap()).unwrap();
    store.save_with_stamp(&wisdom, 1).unwrap();
    // A shard cut short inside its header.
    let damaged = dir.join("n04-x-00000000-h.shard");
    fs::write(&damaged, b"WHTSHRD").unwrap();

    let out = wht_wisdom(&["inspect", dir.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout.contains("1 intact shard(s), 1 damaged"), "{stdout}");
    assert!(stdout.contains("n=3"), "{stdout}");
    assert!(damaged.exists(), "inspect must not quarantine");
    assert!(!dir.join("quarantine").exists(), "inspect must not write");

    // fsck reports the same damage, still read-only.
    let out = wht_wisdom(&["fsck", dir.to_str().unwrap()]);
    assert!(!out.status.success(), "damage fails fsck: {out:?}");
    assert!(
        damaged.exists(),
        "fsck without --quarantine must not move it"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn read_only_commands_refuse_a_missing_store() {
    let dir = temp_dir("missing");
    let path = dir.to_str().unwrap();
    for args in [
        vec!["inspect", path],
        vec!["fsck", path],
        vec!["fsck", path, "--quarantine"],
    ] {
        let out = wht_wisdom(&args);
        assert!(!out.status.success(), "{args:?}: {out:?}");
        assert!(!dir.exists(), "{args:?} must create nothing");
    }
}
