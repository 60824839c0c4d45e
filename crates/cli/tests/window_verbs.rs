//! What `validate`, `diff` and `investigate` print, pinned byte for
//! byte, and how they fail on a corrupt hour.
//!
//! The complete-store goldens under `golden/` were written by the build
//! that decoded the whole window into memory first; the verbs now read
//! straight from the store (`investigate` decodes each hour once, into
//! its behavior vectors; `--intel` loads the intel `simulate` wrote)
//! and must print the same thing. Every verb reads the hours of the paper's
//! day-completeness rule (§III-A2), as `analyze` does, so the short day
//! on the `diff` side is dropped whole and named in the dropped-days
//! line; `diff_short_day.txt` was re-pinned when `diff` stopped reading
//! the 17 hours that day has.

mod common;

use common::{args, hour_file, tiny_store};
use iotscope_cli::commands::{diff, investigate, validate};
use iotscope_cli::CliError;

/// How every read verb names a corrupt hour: the hour and its interval.
const MESSAGE: &str = "store error: h414490 (interval 59): flowtuple codec error: \
                       block 0: flowtuple codec error: checksum mismatch (corrupt block)";

#[test]
fn validate_and_diff_match_golden_and_name_a_corrupt_hour() {
    let baseline = tiny_store("verbs-baseline", "13");
    let current = tiny_store("verbs-current", "14");
    for hour in 414_504..=414_510 {
        std::fs::remove_file(hour_file(&current, 17271, hour)).unwrap();
    }
    let (baseline_dir, current_dir) = (baseline.to_str().unwrap(), current.to_str().unwrap());
    let validate_args = args(&["--data", baseline_dir]);
    let diff_args = args(&["--baseline", baseline_dir, "--data", current_dir]);

    // The goldens are the old binary's stdout: the text plus `main`'s
    // newline.
    assert_eq!(
        validate(&validate_args).unwrap() + "\n",
        include_str!("golden/validate_complete.txt")
    );
    assert_eq!(
        diff(&diff_args).unwrap() + "\n",
        include_str!("golden/diff_short_day.txt")
    );

    // A corrupt hour is a run error (exit 1) naming the hour.
    let path = hour_file(&baseline, 17270, 414_490);
    let mut bytes = std::fs::read(&path).unwrap();
    *bytes.last_mut().unwrap() ^= 0xff;
    std::fs::write(&path, bytes).unwrap();
    for result in [validate(&validate_args), diff(&diff_args)] {
        match result.unwrap_err() {
            CliError::Run(message) => assert_eq!(message, MESSAGE),
            other => panic!("expected a run error, got {other:?}"),
        }
    }

    std::fs::remove_dir_all(&baseline).unwrap();
    std::fs::remove_dir_all(&current).unwrap();
}

#[test]
fn investigate_matches_golden_with_and_without_intel() {
    let dir = tiny_store("verbs-investigate", "13");
    let dir_s = dir.to_str().unwrap();
    // The golden is the in-memory build's `--intel` stdout; without
    // `--intel` the output is its first two sections.
    let golden = include_str!("golden/investigate_complete.txt");
    let with_intel = investigate(&args(&["--data", dir_s, "--intel"])).unwrap();
    assert_eq!(with_intel + "\n", golden);
    let plain = investigate(&args(&["--data", dir_s])).unwrap();
    assert!(golden.starts_with(&plain), "{plain}");
    assert!(!plain.contains("malware attribution"));

    let path = hour_file(&dir, 17270, 414_490);
    let mut bytes = std::fs::read(&path).unwrap();
    *bytes.last_mut().unwrap() ^= 0xff;
    std::fs::write(&path, bytes).unwrap();
    let err = investigate(&args(&["--data", dir_s])).unwrap_err();
    assert_eq!(err.to_string(), MESSAGE);
    std::fs::remove_dir_all(&dir).unwrap();
}
