//! What `serve` and `watch` print, pinned byte for byte on complete and
//! incomplete stores, and how they fail on a corrupt hour.
//!
//! The golden files under `golden/` were written by the build that
//! still materialised the whole window before ingesting it; the daemon
//! now streams the store hour by hour, and must print the same thing.
//! Both verbs ingest *every* window hour the store holds — the rule is
//! presence, not the batch pipeline's day-completeness rule — so a day
//! that `analyze` would drop still reaches the daemon.

mod common;

use common::{args, hour_file};
use iotscope_cli::commands::{analyze, serve, watch};
use iotscope_cli::CliError;
use std::path::{Path, PathBuf};

fn tiny_store(name: &str) -> PathBuf {
    common::tiny_store(&format!("daemon-{name}"), "13")
}

/// `serve --once --intel` stdout after the address line (the port is
/// ephemeral).
fn serve_body(dir: &Path) -> Result<String, CliError> {
    let mut buf = Vec::new();
    let outcome = serve(
        &args(&[
            "--data",
            dir.to_str().unwrap(),
            "--port",
            "0",
            "--once",
            "--intel",
        ]),
        &mut buf,
    );
    let text = String::from_utf8(buf).unwrap();
    outcome.map(|()| {
        let (address, body) = text.split_once('\n').expect("an address line");
        assert!(address.starts_with("serving on http://127.0.0.1:"));
        body.to_owned()
    })
}

fn watch_intel(dir: &Path) -> Result<String, CliError> {
    watch(&args(&["--data", dir.to_str().unwrap(), "--intel"]))
}

fn assert_golden(dir: &Path, serve_golden: &str, watch_golden: &str) {
    assert_eq!(serve_body(dir).unwrap(), serve_golden, "serve stdout");
    assert_eq!(watch_intel(dir).unwrap(), watch_golden, "watch stdout");
}

#[test]
fn complete_store_matches_golden() {
    let dir = tiny_store("complete");
    assert_golden(
        &dir,
        include_str!("golden/serve_complete.txt"),
        include_str!("golden/watch_complete.txt"),
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn one_missing_hour_in_a_kept_day_matches_golden() {
    let dir = tiny_store("hour-missing");
    std::fs::remove_file(hour_file(&dir, 17270, 414_490)).unwrap();
    assert_golden(
        &dir,
        include_str!("golden/serve_hour_missing.txt"),
        include_str!("golden/watch_hour_missing.txt"),
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_day_analyze_would_drop_is_still_ingested() {
    let dir = tiny_store("short-day");
    for hour in 414_504..=414_510 {
        std::fs::remove_file(hour_file(&dir, 17271, hour)).unwrap();
    }
    // The batch pipeline drops the whole day (17 of 24 hours left)...
    let stats = analyze(&args(&["--data", dir.to_str().unwrap(), "--stats"])).unwrap();
    assert!(
        stats.contains("hours ingested:  119 (7 missing, 17 skipped; dropped days [3])"),
        "{stats}"
    );
    // ...the daemon ingests the 136 hours that exist.
    let golden = include_str!("golden/serve_short_day.txt");
    assert!(golden.contains("ingest complete: 136 hours"));
    assert_golden(&dir, golden, include_str!("golden/watch_short_day.txt"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_corrupt_hour_fails_both_verbs_with_the_store_error() {
    let dir = tiny_store("corrupt");
    let path = hour_file(&dir, 17270, 414_490);
    let mut bytes = std::fs::read(&path).unwrap();
    *bytes.last_mut().unwrap() ^= 0xff;
    std::fs::write(&path, bytes).unwrap();

    const MESSAGE: &str = "store error: flowtuple codec error: block 0: \
                           flowtuple codec error: checksum mismatch (corrupt block)";
    let data = dir.to_str().unwrap();
    for intel in [&["--intel"][..], &[]] {
        let mut serve_args = args(&["--data", data, "--port", "0", "--once"]);
        serve_args.extend(args(intel));
        let mut out = Vec::new();
        let err = serve(&serve_args, &mut out).unwrap_err();
        assert_eq!(err.to_string(), MESSAGE, "serve {intel:?}");
        let out = String::from_utf8(out).unwrap();
        assert!(!out.contains("ingest complete"), "{out}");
        // Nothing of the corrupt hour (interval 59) or later was printed.
        assert!(!out.contains("[h 59]") && !out.contains("[h 60]"), "{out}");

        let mut watch_args = args(&["--data", data]);
        watch_args.extend(args(intel));
        let err = watch(&watch_args).unwrap_err();
        assert_eq!(err.to_string(), MESSAGE, "watch {intel:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
