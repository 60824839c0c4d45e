//! Intel persistence: the §V inputs of a data directory as files.
//!
//! In the paper the Cymon repository and the sandbox-report corpus are
//! external feeds, fixed before the traffic is analyzed and joined
//! against the inferred devices afterwards. A data directory carries
//! them the same way, in `intel/` beside `inventory.tsv`: [`save`]
//! writes the three stores once and [`load`] reads them back into an
//! [`IntelContext`], whatever the traffic under `darknet/` holds by then.
//!
//! ```text
//! intel/threats.tsv    #iotscope-threats v1
//!                      event|<ip>|<Category>|<source>|<reported_at>
//! intel/families.tsv   #iotscope-families v1
//!                      family|<hash>|<Family>
//! intel/sandbox.xml    every report's SandboxReport::to_xml, one after another
//! ```
//!
//! `threats.tsv` lists the events address by address (ascending), each
//! address's in the order they were added — the order
//! [`ThreatRepo::events_for`] returns them in. `families.tsv` is sorted
//! by hash. `sandbox.xml` holds the reports in ingestion order, so every
//! report index — and with it the [`IntelIndex`](crate::IntelIndex) —
//! comes back as it was saved. The corpus is one file, not a file per
//! report as [`MalwareDb::ingest_dir`] reads: creating ≈ 650 small
//! files cost 0.15–0.4 s on an ext4 volume, more than the analysis the
//! intel is built from (EXPERIMENTS.md, "Intel is an input").
//!
//! Loading is strict: a malformed line or report fails naming
//! `file:line`, and a missing directory is its own error. Nothing is
//! skipped and nothing is made up.

use crate::family::{FamilyResolver, MalwareFamily};
use crate::malwaredb::MalwareDb;
use crate::sandbox::MalwareHash;
use crate::threat::{ThreatCategory, ThreatEvent, ThreatRepo};
use crate::{IntelContext, IntelError};
use std::error::Error;
use std::fmt;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

/// The threat repository's file in an intel directory.
pub const THREATS_FILE: &str = "threats.tsv";
/// The hash → family table's file in an intel directory.
pub const FAMILIES_FILE: &str = "families.tsv";
/// The sandbox-report corpus's file in an intel directory.
pub const SANDBOX_FILE: &str = "sandbox.xml";

const THREATS_HEADER: &str = "#iotscope-threats v1";
const FAMILIES_HEADER: &str = "#iotscope-families v1";

/// Errors from reading or writing an intel directory. Every variant
/// names the path it concerns.
#[derive(Debug)]
#[non_exhaustive]
pub enum IntelIoError {
    /// The intel directory does not exist.
    Missing(PathBuf),
    /// An i/o failure on a file or directory.
    Io {
        /// The file or directory.
        path: PathBuf,
        /// The failure.
        source: std::io::Error,
    },
    /// A malformed line of `threats.tsv` or `families.tsv`, or a line
    /// of `sandbox.xml` outside a well-formed `<report>` block.
    Parse {
        /// The file.
        path: PathBuf,
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A sandbox report that does not parse.
    Report {
        /// The corpus file.
        path: PathBuf,
        /// 1-based line of the report's `<report>`.
        line: usize,
        /// The parse error.
        source: IntelError,
    },
}

impl fmt::Display for IntelIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntelIoError::Missing(path) => write!(f, "no intel directory at {}", path.display()),
            IntelIoError::Io { path, source } => {
                write!(f, "{}: i/o error: {source}", path.display())
            }
            IntelIoError::Parse {
                path,
                line,
                message,
            } => write!(f, "{}:{line}: {message}", path.display()),
            IntelIoError::Report { path, line, source } => {
                write!(f, "{}:{line}: {source}", path.display())
            }
        }
    }
}

impl Error for IntelIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IntelIoError::Io { source, .. } => Some(source),
            IntelIoError::Report { source, .. } => Some(source),
            IntelIoError::Missing(_) | IntelIoError::Parse { .. } => None,
        }
    }
}

/// An `io::Error` → [`IntelIoError::Io`] adapter naming `path`.
fn io_at(path: &Path) -> impl FnOnce(std::io::Error) -> IntelIoError + '_ {
    move |source| IntelIoError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// A field that cannot be written: it would split its record.
fn unwritable(what: &str, value: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidInput,
        format!("{what} {value:?} holds a '|' or a line break"),
    )
}

fn writable(value: &str) -> bool {
    !value.contains(['|', '\n', '\r'])
}

/// Write the three stores to `dir` (created if absent): `threats.tsv`,
/// `families.tsv` and `sandbox.xml`, each replacing what an earlier
/// save left, so the directory loads to exactly these stores.
///
/// # Errors
///
/// [`IntelIoError::Io`] naming the path that failed, also when a threat
/// source or a hash holds a `|` or a line break.
pub fn save(
    dir: &Path,
    threats: &ThreatRepo,
    malware: &MalwareDb,
    resolver: &FamilyResolver,
) -> Result<(), IntelIoError> {
    std::fs::create_dir_all(dir).map_err(io_at(dir))?;

    let mut flagged: Vec<(Ipv4Addr, &[ThreatEvent])> = threats.iter_flagged().collect();
    flagged.sort_unstable_by_key(|&(ip, _)| ip);
    let mut text = format!("{THREATS_HEADER}\n");
    for e in flagged.into_iter().flat_map(|(_, events)| events) {
        if !writable(&e.source) {
            let path = dir.join(THREATS_FILE);
            return Err(io_at(&path)(unwritable("threat source", &e.source)));
        }
        text.push_str(&format!(
            "event|{}|{:?}|{}|{}\n",
            e.ip, e.category, e.source, e.reported_at
        ));
    }
    write_file(&dir.join(THREATS_FILE), &text)?;

    let mut families: Vec<(&MalwareHash, MalwareFamily)> = resolver.iter().collect();
    families.sort_unstable();
    let mut text = format!("{FAMILIES_HEADER}\n");
    for (hash, family) in families {
        if hash.as_hex().is_empty() || !writable(hash.as_hex()) {
            let path = dir.join(FAMILIES_FILE);
            return Err(io_at(&path)(unwritable("hash", hash.as_hex())));
        }
        text.push_str(&format!("family|{hash}|{family:?}\n"));
    }
    write_file(&dir.join(FAMILIES_FILE), &text)?;

    let corpus: String = malware.reports().iter().map(|r| r.to_xml()).collect();
    write_file(&dir.join(SANDBOX_FILE), &corpus)
}

fn write_file(path: &Path, text: &str) -> Result<(), IntelIoError> {
    std::fs::write(path, text).map_err(io_at(path))
}

/// Read the intel directory [`save`] wrote into an [`IntelContext`]:
/// the three stores, and the index built over them.
///
/// # Errors
///
/// [`IntelIoError::Missing`] when `dir` is not a directory;
/// [`IntelIoError::Parse`] naming `file:line` for the first malformed
/// line of either table or of the corpus's report structure;
/// [`IntelIoError::Report`] naming `file:line` of the first report
/// that does not parse; [`IntelIoError::Io`] naming what could not be
/// read.
pub fn load(dir: &Path) -> Result<IntelContext, IntelIoError> {
    if !dir.is_dir() {
        return Err(IntelIoError::Missing(dir.to_path_buf()));
    }
    let threats = parse_table(&dir.join(THREATS_FILE), THREATS_HEADER, "event", |f| {
        let [ip, category, source, reported_at] = f else {
            return Err("event needs 4 fields".to_owned());
        };
        Ok(ThreatEvent {
            ip: ip.parse().map_err(|_| format!("bad ip {ip:?}"))?,
            category: by_debug_name(&ThreatCategory::ALL, category)
                .ok_or_else(|| format!("unknown threat category {category:?}"))?,
            source: (*source).to_owned(),
            reported_at: reported_at
                .parse()
                .map_err(|_| format!("bad timestamp {reported_at:?}"))?,
        })
    })?
    .into_iter()
    .collect::<ThreatRepo>();

    let mut resolver = FamilyResolver::new();
    let families = parse_table(&dir.join(FAMILIES_FILE), FAMILIES_HEADER, "family", |f| {
        let [hash, family] = f else {
            return Err("family needs 2 fields".to_owned());
        };
        if hash.is_empty() {
            return Err("empty hash".to_owned());
        }
        let family = by_debug_name(&MalwareFamily::ALL, family)
            .ok_or_else(|| format!("unknown malware family {family:?}"))?;
        Ok((MalwareHash::from_hex(*hash), family))
    })?;
    for (hash, family) in families {
        resolver.register(hash, family);
    }

    let malware = parse_corpus(&dir.join(SANDBOX_FILE))?;
    Ok(IntelContext::new(threats, malware, resolver))
}

/// Parse a corpus of `<report>` … `</report>` blocks, each one
/// [`SandboxReport::parse_xml`](crate::SandboxReport::parse_xml) reads,
/// into a database in file order. Blank lines between blocks are
/// skipped; any other text outside a block, a block opened inside
/// another, or one never closed is an error at its line.
fn parse_corpus(path: &Path) -> Result<MalwareDb, IntelIoError> {
    let text = std::fs::read_to_string(path).map_err(io_at(path))?;
    let bad = |line, message: &str| IntelIoError::Parse {
        path: path.to_path_buf(),
        line,
        message: message.to_owned(),
    };
    let mut db = MalwareDb::new();
    // The line and byte offset of the open block's `<report>`.
    let mut open: Option<(usize, usize)> = None;
    let mut offset = 0;
    for (i, line) in text.split_inclusive('\n').enumerate() {
        let (lineno, start) = (i + 1, offset);
        offset += line.len();
        match (line.trim(), open) {
            ("<report>", None) => open = Some((lineno, start)),
            ("<report>", Some(_)) => return Err(bad(lineno, "<report> inside a report")),
            ("</report>", Some((first, from))) => {
                let report =
                    crate::SandboxReport::parse_xml(&text[from..offset]).map_err(|source| {
                        IntelIoError::Report {
                            path: path.to_path_buf(),
                            line: first,
                            source,
                        }
                    })?;
                db.ingest(report);
                open = None;
            }
            ("</report>", None) => return Err(bad(lineno, "</report> outside a report")),
            ("", None) | (_, Some(_)) => {}
            (_, None) => return Err(bad(lineno, "text outside a report")),
        }
    }
    match open {
        Some((first, _)) => Err(bad(first, "report never closed")),
        None => Ok(db),
    }
}

/// The variant of `all` whose `{:?}` rendering is `name`.
fn by_debug_name<T: Copy + fmt::Debug>(all: &[T], name: &str) -> Option<T> {
    all.iter().copied().find(|v| format!("{v:?}") == name)
}

/// Parse a `|`-separated table: `header` on line 1, then one `kind|…`
/// record per line, each turned into a `T` by `record` from its fields
/// after `kind`. Blank lines are skipped.
fn parse_table<T>(
    path: &Path,
    header: &str,
    kind: &str,
    mut record: impl FnMut(&[&str]) -> Result<T, String>,
) -> Result<Vec<T>, IntelIoError> {
    let text = std::fs::read_to_string(path).map_err(io_at(path))?;
    let bad = |line, message| IntelIoError::Parse {
        path: path.to_path_buf(),
        line,
        message,
    };
    let mut lines = text.lines();
    match lines.next() {
        Some(first) if first.trim_end() == header => {}
        Some(first) => return Err(bad(1, format!("bad header {first:?}"))),
        None => return Err(bad(1, "empty file".to_owned())),
    }
    let mut records = Vec::new();
    for (i, line) in lines.enumerate() {
        let line = line.trim_end_matches('\r');
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split('|').collect();
        let parsed = match fields.split_first() {
            Some((k, rest)) if *k == kind => record(rest),
            Some((k, _)) => Err(format!("unknown record kind {k:?}")),
            None => unreachable!("split yields at least one item"),
        };
        records.push(parsed.map_err(|message| bad(i + 2, message))?);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sandbox::{NetworkActivity, SandboxReport, SystemActivity};

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("iotscope-intel-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn event(ip: [u8; 4], category: ThreatCategory, reported_at: u64) -> ThreatEvent {
        ThreatEvent {
            ip: Ipv4Addr::from(ip),
            category,
            source: "honeypot-agg".into(),
            reported_at,
        }
    }

    fn report(hash: &str, ip: [u8; 4]) -> SandboxReport {
        SandboxReport {
            sha256: MalwareHash::from_hex(hash),
            network: NetworkActivity {
                contacted_ips: vec![Ipv4Addr::from(ip)],
                contacted_ports: vec![23],
                domains: vec!["c2-01.badnet.example".into()],
                payload_bytes: 512,
            },
            system: SystemActivity {
                dlls: vec!["ws2_32.dll".into()],
                registry_keys: vec!["HKLM\\Software\\Run\\upd".into()],
                peak_memory_kib: 4_096,
            },
        }
    }

    /// A small intel directory: two addresses' events (one out of
    /// address order, one with two events), two families, two reports.
    fn saved(name: &str) -> (PathBuf, ThreatRepo, MalwareDb, FamilyResolver) {
        let dir = tmpdir(name);
        let threats: ThreatRepo = vec![
            event([9, 9, 9, 9], ThreatCategory::Spam, 3),
            event([1, 2, 3, 4], ThreatCategory::Malware, 2),
            event([1, 2, 3, 4], ThreatCategory::Scanning, 1),
        ]
        .into_iter()
        .collect();
        let malware: MalwareDb = vec![report("bb01", [1, 2, 3, 4]), report("aa02", [9, 9, 9, 9])]
            .into_iter()
            .collect();
        let mut resolver = FamilyResolver::new();
        resolver.register(MalwareHash::from_hex("bb01"), MalwareFamily::Msil);
        resolver.register(MalwareHash::from_hex("aa02"), MalwareFamily::Ramnit);
        save(&dir, &threats, &malware, &resolver).unwrap();
        (dir, threats, malware, resolver)
    }

    #[test]
    fn save_then_load_returns_the_stores() {
        let (dir, threats, malware, resolver) = saved("roundtrip");
        let text = std::fs::read_to_string(dir.join(THREATS_FILE)).unwrap();
        assert_eq!(
            text,
            "#iotscope-threats v1\n\
             event|1.2.3.4|Malware|honeypot-agg|2\n\
             event|1.2.3.4|Scanning|honeypot-agg|1\n\
             event|9.9.9.9|Spam|honeypot-agg|3\n"
        );
        let text = std::fs::read_to_string(dir.join(FAMILIES_FILE)).unwrap();
        assert_eq!(
            text,
            "#iotscope-families v1\nfamily|aa02|Ramnit\nfamily|bb01|Msil\n"
        );
        let corpus = std::fs::read_to_string(dir.join(SANDBOX_FILE)).unwrap();
        assert_eq!(corpus.matches("<report>").count(), 2);

        let ctx = load(&dir).unwrap();
        for ip in [[1, 2, 3, 4], [9, 9, 9, 9]].map(Ipv4Addr::from) {
            assert_eq!(ctx.threats.events_for(ip), threats.events_for(ip));
            assert_eq!(ctx.index.lookup(ip).unwrap().samples.len(), 1);
        }
        assert_eq!(ctx.threats.num_events(), 3);
        assert_eq!(ctx.malware.reports(), malware.reports());
        let mut want: Vec<_> = resolver.iter().collect();
        let mut got: Vec<_> = ctx.resolver.iter().collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want);

        // A second save over the first leaves no stale report behind.
        save(&dir, &ThreatRepo::new(), &MalwareDb::new(), &resolver).unwrap();
        let ctx = load(&dir).unwrap();
        assert!(ctx.malware.is_empty() && ctx.threats.num_events() == 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_missing_intel_directory_is_its_own_error() {
        let dir = tmpdir("missing");
        let err = load(&dir).unwrap_err();
        assert!(matches!(&err, IntelIoError::Missing(p) if *p == dir));
        assert_eq!(
            err.to_string(),
            format!("no intel directory at {}", dir.display())
        );
    }

    #[test]
    fn a_malformed_threats_line_names_file_and_line() {
        let (dir, ..) = saved("bad-threats");
        let path = dir.join(THREATS_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        for (bad, message) in [
            ("event|1.2.3|Spam|x|1", "bad ip \"1.2.3\""),
            ("event|1.2.3.4|Worm|x|1", "unknown threat category \"Worm\""),
            ("event|1.2.3.4|Spam|x|soon", "bad timestamp \"soon\""),
            ("event|1.2.3.4|Spam|x", "event needs 4 fields"),
            ("evnt|1.2.3.4|Spam|x|1", "unknown record kind \"evnt\""),
        ] {
            std::fs::write(&path, format!("{text}{bad}\n")).unwrap();
            let err = load(&dir).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("{}:5: {message}", path.display()),
                "{bad}"
            );
        }
        std::fs::write(&path, text.replace("v1", "v2")).unwrap();
        let err = load(&dir).unwrap_err().to_string();
        assert!(err.starts_with(&format!("{}:1: bad header", path.display())));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_malformed_families_line_names_file_and_line() {
        let (dir, ..) = saved("bad-families");
        let path = dir.join(FAMILIES_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        for (bad, message) in [
            ("family|cc03|Mirai", "unknown malware family \"Mirai\""),
            ("family||Msil", "empty hash"),
            ("family|cc03", "family needs 2 fields"),
        ] {
            std::fs::write(&path, format!("{text}{bad}\n")).unwrap();
            let err = load(&dir).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("{}:4: {message}", path.display()),
                "{bad}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_malformed_sandbox_report_names_its_file() {
        let (dir, ..) = saved("bad-report");
        let path = dir.join(SANDBOX_FILE);
        let good = std::fs::read_to_string(&path).unwrap();
        let lines = good.lines().count();
        for (bad, line, message) in [
            (
                "<report>\n<ip>1.2.3</ip>\n</report>\n",
                lines + 1,
                "invalid sandbox report: bad ip \"1.2.3\"",
            ),
            (
                "<report>\n</report>\n",
                lines + 1,
                "invalid sandbox report: missing <sha256>",
            ),
            (
                "<report>\n<sha256>aa</sha256>\n",
                lines + 1,
                "report never closed",
            ),
            (
                "<report>\n<report>\n",
                lines + 2,
                "<report> inside a report",
            ),
            ("</report>\n", lines + 1, "</report> outside a report"),
            ("<sha256>aa</sha256>\n", lines + 1, "text outside a report"),
        ] {
            std::fs::write(&path, format!("{good}{bad}")).unwrap();
            let err = load(&dir).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("{}:{line}: {message}", path.display()),
                "{bad}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_source_that_would_split_its_record_is_not_written() {
        let dir = tmpdir("unwritable");
        let mut threats = ThreatRepo::new();
        let mut bad = event([1, 1, 1, 1], ThreatCategory::Spam, 0);
        bad.source = "a|b".into();
        threats.add(bad);
        let err = save(&dir, &threats, &MalwareDb::new(), &FamilyResolver::new()).unwrap_err();
        assert!(err.to_string().contains("threat source \"a|b\""), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
