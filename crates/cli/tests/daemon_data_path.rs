//! What `serve` and `watch` print, pinned byte for byte on complete and
//! incomplete stores, and how they fail on a corrupt hour.
//!
//! The complete-store goldens under `golden/` were written by the build
//! that still materialised the whole window before ingesting it; the
//! daemon now streams the store hour by hour, and must print the same
//! thing. Both verbs ingest the hours of the paper's day-completeness
//! rule (§III-A2), the rule every verb applies: a short day that
//! `analyze` drops never reaches the daemon either, so the final epoch
//! is `analyze`'s analysis. The short-day goldens were re-pinned when
//! the daemon stopped ingesting such a day.
//!
//! The `--intel` verbs load the intel `simulate` wrote into `intel/`,
//! fixed with the dataset like the paper's external feeds. Hours
//! deleted from the store afterwards do not change it, so on the
//! hour-missing and short-day stores the `SCORE` lines and the alert
//! total differ from the build that re-derived the intel from each
//! verb's own analysis of what was left; those four goldens were
//! re-pinned for that.

mod common;

use common::{args, hour_file};
use iotscope_cli::commands::{analyze, investigate, serve, validate, watch};
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
fn every_window_verb_sees_the_hours_analyze_keeps() {
    let dir = tiny_store("short-day");
    let data = dir.to_str().unwrap();
    for hour in 414_504..=414_510 {
        std::fs::remove_file(hour_file(&dir, 17271, hour)).unwrap();
    }
    // 17 of day 3's 24 hours are left: every verb drops the whole day,
    // says so first in the same line, and reads the same 119 hours.
    const DROPPED: &str =
        "window: dropped incomplete days [3] (119 hours kept, 17 skipped, 7 missing)\n";
    let report = analyze(&args(&["--data", data, "--stats"])).unwrap();
    assert!(report.starts_with(DROPPED), "{report}");
    assert!(report.contains("hours ingested:  119 ("), "{report}");
    let compromised = report.split("compromised devices: ").nth(1).unwrap();
    let compromised = compromised.split(' ').next().unwrap();
    // The daemon's final epoch is the analysis `analyze` printed.
    let indexed = format!("{compromised} compromised devices indexed");
    let serve_golden = include_str!("golden/serve_short_day.txt");
    let watch_golden = include_str!("golden/watch_short_day.txt");
    assert!(serve_golden.starts_with(DROPPED) && watch_golden.starts_with(DROPPED));
    assert!(serve_golden.contains(&format!("ingest complete: 119 hours, {indexed}")));
    assert!(watch_golden.contains("\n119 hours replayed, ") && watch_golden.contains(&indexed));
    assert_golden(&dir, serve_golden, watch_golden);
    // `validate` certifies that analysis (and fails it: the dropped day
    // held planted devices); `investigate` folds the same hours.
    let verdict = validate(&args(&["--data", data])).unwrap_err().to_string();
    assert!(verdict.starts_with(DROPPED), "{verdict}");
    assert!(
        verdict.contains(&format!("recovered: {compromised}/")),
        "{verdict}"
    );
    let investigated = investigate(&args(&["--data", data])).unwrap();
    assert!(investigated.starts_with(DROPPED), "{investigated}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_corrupt_hour_fails_both_verbs_with_the_store_error() {
    let dir = tiny_store("corrupt");
    let path = hour_file(&dir, 17270, 414_490);
    let mut bytes = std::fs::read(&path).unwrap();
    *bytes.last_mut().unwrap() ^= 0xff;
    std::fs::write(&path, bytes).unwrap();

    // Every read verb names the hour, `analyze` included.
    const MESSAGE: &str = "store error: h414490 (interval 59): flowtuple codec error: \
                           block 0: flowtuple codec error: checksum mismatch (corrupt block)";
    let data = dir.to_str().unwrap();
    let err = analyze(&args(&["--data", data])).unwrap_err();
    assert_eq!(err.to_string(), MESSAGE, "analyze");
    let mut served = Vec::new();
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
        let (address, body) = out.split_once('\n').expect("an address line");
        assert!(address.starts_with("serving on http://"), "serve {intel:?}");
        served.push(body.to_owned());

        let mut watch_args = args(&["--data", data]);
        watch_args.extend(args(intel));
        let err = watch(&watch_args).unwrap_err();
        assert_eq!(err.to_string(), MESSAGE, "watch {intel:?}");
    }
    // With `--intel` no start-up analysis reads the window first: the
    // daemon serves and replays the 58 hours before the corrupt one, as
    // it does without, raising the same alerts with scores beside them.
    let behavioral: String = served[0]
        .lines()
        .filter(|line| !line.contains("] SCORE "))
        .map(|line| format!("{line}\n"))
        .collect();
    assert!(behavioral.len() < served[0].len(), "no SCORE line");
    assert!(served[1].contains("[h 55]"), "{}", served[1]);
    assert_eq!(behavioral, served[1]);
    std::fs::remove_dir_all(&dir).unwrap();
}
