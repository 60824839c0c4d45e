//! Helpers shared by the golden-stdout tests.

use iotscope_cli::commands::simulate;
use std::path::{Path, PathBuf};

pub fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| (*s).to_owned()).collect()
}

/// A fresh tiny store (1.6 MB, 143 hours) in a directory of its own.
pub fn tiny_store(name: &str, seed: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iotscope-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = dir.to_str().unwrap();
    simulate(&args(&[
        "--out", out, "--tiny", "--seed", seed, "--scale", "0.001",
    ]))
    .unwrap();
    dir
}

pub fn hour_file(dir: &Path, day: u32, hour: u32) -> PathBuf {
    dir.join(format!("darknet/day-{day}/hour-{hour}.ft"))
}
