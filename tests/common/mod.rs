//! Helpers shared by the integration-test binaries.
#![allow(dead_code)] // each test binary uses its own subset

use gqr::prelude::*;
use std::path::PathBuf;

/// The audio50k smoke fixture the persistence/snapshot tests train on.
pub fn fixture() -> Dataset {
    DatasetSpec::audio50k().scale(Scale::Smoke).generate(77)
}

/// A fresh temp directory unique to `tag` and this process.
pub fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gqr_test_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
