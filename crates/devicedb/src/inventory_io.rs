//! Inventory persistence: a line-oriented text format carrying the device
//! database together with the ISP directory it references.
//!
//! The paper's operational vision (§VI) includes sharing IoT device
//! information between parties; this format is the workspace's exchange
//! vehicle, also used by the `iotscope` CLI to decouple simulation from
//! analysis. It is deliberately dependency-free:
//!
//! ```text
//! #iotscope-inventory v1
//! meta|<key>|<value>
//! isp|<id>|<country-code>|<name>
//! dev|<ip>|<country-code>|<isp-id>|consumer:<Kind>
//! dev|<ip>|<country-code>|<isp-id>|cps:<Service>[+<Service>…]
//! ```

use crate::db::DeviceDb;
use crate::device::{DeviceId, DeviceProfile, IotDevice};
use crate::geo::CountryCode;
use crate::isp::{IspId, IspRegistry};
use crate::taxonomy::{ConsumerKind, CpsService};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::Ipv4Addr;
use std::path::Path;

const HEADER: &str = "#iotscope-inventory v1";

/// Errors from reading an inventory file.
#[derive(Debug)]
#[non_exhaustive]
pub enum InventoryIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not an inventory file or is malformed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for InventoryIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InventoryIoError::Io(e) => write!(f, "i/o error: {e}"),
            InventoryIoError::Parse { line, message } => {
                write!(f, "invalid inventory file at line {line}: {message}")
            }
        }
    }
}

impl Error for InventoryIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            InventoryIoError::Io(e) => Some(e),
            InventoryIoError::Parse { .. } => None,
        }
    }
}

impl From<std::io::Error> for InventoryIoError {
    fn from(e: std::io::Error) -> Self {
        InventoryIoError::Io(e)
    }
}

/// A loaded inventory: devices, the ISP directory, and the metadata map.
#[derive(Debug)]
pub struct LoadedInventory {
    /// The device database.
    pub db: DeviceDb,
    /// The ISP directory (name/country lookups).
    pub isps: IspRegistry,
    /// Free-form `meta` entries (e.g. `seed`, `scale`).
    pub meta: BTreeMap<String, String>,
}

/// The names `save` writes and `load` reads for the profile enums: each
/// variant's `{:?}` rendering, in `ALL` order, formatted once per call.
struct ProfileNames {
    consumer: Vec<(String, ConsumerKind)>,
    cps: Vec<(String, CpsService)>,
}

impl ProfileNames {
    fn new() -> Self {
        ProfileNames {
            consumer: ConsumerKind::ALL.map(|k| (format!("{k:?}"), k)).into(),
            cps: CpsService::ALL.map(|s| (format!("{s:?}"), s)).into(),
        }
    }
}

/// The entry of a [`ProfileNames`] table for `name`, if any.
fn by_name<T: Copy>(table: &[(String, T)], name: &str) -> Option<T> {
    table.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
}

/// The name a [`ProfileNames`] table holds for `value`.
fn name_of<T: Copy + PartialEq>(table: &[(String, T)], value: T) -> &str {
    let (name, _) = table
        .iter()
        .find(|&&(_, v)| v == value)
        .expect("ALL lists every variant");
    name
}

/// Write `db` (+ the subset of `isps` it references) to `path`.
///
/// # Errors
///
/// Propagates I/O failures.
///
/// # Panics
///
/// Panics if a device references an ISP that `isps` does not hold.
pub fn save<P: AsRef<Path>>(
    path: P,
    db: &DeviceDb,
    isps: &IspRegistry,
    meta: &BTreeMap<String, String>,
) -> Result<(), InventoryIoError> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    writeln!(w, "{HEADER}")?;
    for (k, v) in meta {
        writeln!(w, "meta|{k}|{v}")?;
    }
    // Only the ISPs that devices actually reference, renumbered densely
    // in order of first reference.
    const UNUSED: u32 = u32::MAX;
    let mut saved_id = vec![UNUSED; isps.len()];
    let mut used = 0u32;
    for d in db.iter() {
        let slot = &mut saved_id[d.isp.0 as usize];
        if *slot == UNUSED {
            *slot = used;
            used += 1;
            let isp = isps.isp(d.isp);
            writeln!(w, "isp|{}|{}|{}", *slot, isp.country().code(), isp.name())?;
        }
    }
    let names = ProfileNames::new();
    let mut line: Vec<u8> = Vec::new();
    for d in db.iter() {
        line.clear();
        line.extend_from_slice(b"dev");
        for (octet, before) in d.ip.octets().into_iter().zip(*b"|...") {
            line.push(before);
            push_decimal(&mut line, octet.into());
        }
        line.push(b'|');
        line.extend_from_slice(d.country.code().as_bytes());
        line.push(b'|');
        push_decimal(&mut line, saved_id[d.isp.0 as usize]);
        match &d.profile {
            DeviceProfile::Consumer(kind) => {
                line.extend_from_slice(b"|consumer:");
                line.extend_from_slice(name_of(&names.consumer, *kind).as_bytes());
            }
            DeviceProfile::Cps(services) => {
                line.extend_from_slice(b"|cps:");
                for (i, s) in services.iter().enumerate() {
                    if i > 0 {
                        line.push(b'+');
                    }
                    line.extend_from_slice(name_of(&names.cps, *s).as_bytes());
                }
            }
        }
        line.push(b'\n');
        w.write_all(&line)?;
    }
    w.flush()?;
    Ok(())
}

/// Append `v` in decimal, as `{v}` would print it.
fn push_decimal(out: &mut Vec<u8>, v: u32) {
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    let mut rest = v;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Load an inventory written by [`save`].
///
/// One pass, no allocation per line: every line is read into the same
/// buffer, its fields are walked in place, names resolve through tables
/// built once, and each `dev` record is parsed straight into the device
/// list that [`DeviceDb::from_devices`] then indexes.
///
/// # Errors
///
/// Returns [`InventoryIoError::Parse`] on malformed content with the
/// offending line number. The first malformed line in file order is the
/// one reported — a line that is not UTF-8 counts as one, reported as
/// [`InventoryIoError::Io`] — and the checks that need the whole file
/// (ISP ids dense from 0, every device's ISP present) come after every
/// line's own.
pub fn load<P: AsRef<Path>>(path: P) -> Result<LoadedInventory, InventoryIoError> {
    // Streamed, not `fs::read`: with the 13 MB paper-scale file in one
    // buffer, `analyze --threads 2` ran as fast and peaked 8 MB higher
    // (EXPERIMENTS.md, "Where `analyze --threads 2` goes").
    parse(BufReader::with_capacity(
        1 << 16,
        std::fs::File::open(path)?,
    ))
}

/// Read the next line into `buf` and return it as
/// [`BufRead::lines`] would: split at `\n`, without its `\n` or `\r\n`,
/// `None` at end of input, and the error `read_line` gives for a line
/// that is not UTF-8.
fn next_line<'b>(
    reader: &mut impl BufRead,
    buf: &'b mut Vec<u8>,
) -> Result<Option<&'b str>, InventoryIoError> {
    buf.clear();
    if reader.read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    let line = std::str::from_utf8(buf).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )
    })?;
    Ok(Some(match line.strip_suffix('\n') {
        Some(line) => line.strip_suffix('\r').unwrap_or(line),
        None => line,
    }))
}

fn parse(mut reader: impl BufRead) -> Result<LoadedInventory, InventoryIoError> {
    let mut buf = Vec::new();
    let first = next_line(&mut reader, &mut buf)?.ok_or_else(|| parse_err(1, "empty file"))?;
    if first.trim() != HEADER {
        return Err(parse_err(1, format!("bad header {first:?}")));
    }
    let names = ProfileNames::new();
    let mut meta = BTreeMap::new();
    let mut isp_rows: Vec<(u32, usize, CountryCode, String)> = Vec::new();
    let mut devices: Vec<IotDevice> = Vec::new();
    // The `(isp ref, line)` of each device whose reference exceeded all
    // before it. The first device in file order to reference an unknown
    // ISP is necessarily one of these — everything before it was in
    // range, so below it — which finds its line once the number of ISPs
    // is known, without keeping a line number per device.
    let mut isp_ref_maxima: Vec<(u32, usize)> = Vec::new();
    let mut lineno = 1;
    while let Some(line) = next_line(&mut reader, &mut buf)? {
        lineno += 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split('|');
        match fields.next().expect("split yields at least one item") {
            "meta" => {
                let (Some(key), Some(value), None) = (fields.next(), fields.next(), fields.next())
                else {
                    return Err(parse_err(lineno, "meta needs 2 fields"));
                };
                meta.insert(key.to_owned(), value.to_owned());
            }
            "isp" => {
                let (Some(id), Some(country), Some(name), None) =
                    (fields.next(), fields.next(), fields.next(), fields.next())
                else {
                    return Err(parse_err(lineno, "isp needs 3 fields"));
                };
                let id: u32 = id
                    .parse()
                    .map_err(|_| parse_err(lineno, format!("bad isp id {id:?}")))?;
                let country = parse_country(country, lineno)?;
                isp_rows.push((id, lineno, country, name.to_owned()));
            }
            "dev" => {
                let (Some(ip), Some(country), Some(isp), Some(profile), None) = (
                    fields.next(),
                    fields.next(),
                    fields.next(),
                    fields.next(),
                    fields.next(),
                ) else {
                    return Err(parse_err(lineno, "dev needs 4 fields"));
                };
                let ip: Ipv4Addr = ip
                    .parse()
                    .map_err(|_| parse_err(lineno, format!("bad ip {ip:?}")))?;
                let country = parse_country(country, lineno)?;
                let isp: u32 = isp
                    .parse()
                    .map_err(|_| parse_err(lineno, format!("bad isp ref {isp:?}")))?;
                let profile = parse_profile(&names, profile, lineno)?;
                if isp_ref_maxima.last().is_none_or(|&(max, _)| isp > max) {
                    isp_ref_maxima.push((isp, lineno));
                }
                devices.push(IotDevice {
                    id: DeviceId(0),
                    ip,
                    profile,
                    country,
                    isp: IspId(isp),
                });
            }
            other => {
                return Err(parse_err(lineno, format!("unknown record kind {other:?}")));
            }
        }
    }
    // Build the ISP registry in saved-id order (a stable sort: of two
    // records with one id, the later is the one out of place).
    isp_rows.sort_by_key(|&(id, ..)| id);
    for (expect, &(id, lineno, ..)) in isp_rows.iter().enumerate() {
        if id != expect as u32 {
            return Err(parse_err(lineno, format!("isp ids not dense at {id}")));
        }
    }
    let n_isps = isp_rows.len() as u32;
    if let Some(&(isp, lineno)) = isp_ref_maxima.iter().find(|&&(isp, _)| isp >= n_isps) {
        return Err(parse_err(
            lineno,
            format!("device references unknown isp {isp}"),
        ));
    }
    let isps = IspRegistry::from_names(
        isp_rows
            .into_iter()
            .map(|(_, _, country, name)| (name, country)),
    );
    Ok(LoadedInventory {
        db: DeviceDb::from_devices(devices),
        isps,
        meta,
    })
}

fn parse_err<S: Into<String>>(line: usize, message: S) -> InventoryIoError {
    InventoryIoError::Parse {
        line,
        message: message.into(),
    }
}

fn parse_country(code: &str, line: usize) -> Result<CountryCode, InventoryIoError> {
    CountryCode::from_code(code).ok_or_else(|| parse_err(line, format!("unknown country {code:?}")))
}

fn parse_profile(
    names: &ProfileNames,
    text: &str,
    line: usize,
) -> Result<DeviceProfile, InventoryIoError> {
    if let Some(kind) = text.strip_prefix("consumer:") {
        let kind = by_name(&names.consumer, kind)
            .ok_or_else(|| parse_err(line, format!("unknown consumer kind {kind:?}")))?;
        return Ok(DeviceProfile::Consumer(kind));
    }
    if let Some(list) = text.strip_prefix("cps:") {
        let services = list
            .split('+')
            .map(|name| {
                by_name(&names.cps, name)
                    .ok_or_else(|| parse_err(line, format!("unknown cps service {name:?}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(DeviceProfile::Cps(services));
    }
    Err(parse_err(line, format!("unknown profile {text:?}")))
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{InventoryBuilder, SynthConfig};
    use proptest::prelude::*;
    use std::path::PathBuf;

    fn tmpfile(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("iotscope-inv-{name}-{}.tsv", std::process::id()))
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let out = InventoryBuilder::new(SynthConfig::small(3)).build();
        let path = tmpfile("roundtrip");
        let mut meta = BTreeMap::new();
        meta.insert("seed".to_owned(), "3".to_owned());
        meta.insert("scale".to_owned(), "0.01".to_owned());
        save(&path, &out.db, &out.isps, &meta).unwrap();

        let loaded = load(&path).unwrap();
        assert_eq!(loaded.meta["seed"], "3");
        assert_eq!(loaded.meta["scale"], "0.01");
        assert_eq!(loaded.db.len(), out.db.len());
        for (a, b) in out.db.iter().zip(loaded.db.iter()) {
            assert_eq!(a.ip, b.ip);
            assert_eq!(a.country, b.country);
            assert_eq!(a.profile, b.profile);
            // ISP ids are renumbered, but resolve to the same name/country.
            assert_eq!(out.isps.isp(a.isp).name(), loaded.isps.isp(b.isp).name());
            assert_eq!(
                out.isps.isp(a.isp).country(),
                loaded.isps.isp(b.isp).country()
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_rejects_bad_header_and_garbage() {
        let path = tmpfile("badheader");
        std::fs::write(&path, "not an inventory\n").unwrap();
        assert!(matches!(
            load(&path),
            Err(InventoryIoError::Parse { line: 1, .. })
        ));
        std::fs::write(&path, format!("{HEADER}\nbogus|1|2\n")).unwrap();
        let err = load(&path).unwrap_err();
        assert!(format!("{err}").contains("unknown record kind"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_reports_line_numbers() {
        let path = tmpfile("lineno");
        std::fs::write(
            &path,
            format!("{HEADER}\nisp|0|US|Comcast\ndev|not-an-ip|US|0|consumer:Router\n"),
        )
        .unwrap();
        match load(&path).unwrap_err() {
            InventoryIoError::Parse { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains("bad ip"));
            }
            other => panic!("unexpected {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_rejects_unknown_profile_and_dangling_isp() {
        let path = tmpfile("profile");
        std::fs::write(
            &path,
            format!("{HEADER}\nisp|0|US|Comcast\ndev|1.2.3.4|US|0|consumer:Fridge\n"),
        )
        .unwrap();
        assert!(format!("{}", load(&path).unwrap_err()).contains("unknown consumer kind"));
        std::fs::write(
            &path,
            format!("{HEADER}\nisp|0|US|Comcast\ndev|1.2.3.4|US|9|consumer:Router\n"),
        )
        .unwrap();
        assert_eq!(
            load(&path).unwrap_err().to_string(),
            "invalid inventory file at line 3: device references unknown isp 9"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cps_profiles_roundtrip_multi_service() {
        let path = tmpfile("cps");
        std::fs::write(
            &path,
            format!(
                "{HEADER}\nisp|0|CN|China Telecom\ndev|1.2.3.4|CN|0|cps:EthernetIp+ModbusTcp\n"
            ),
        )
        .unwrap();
        let loaded = load(&path).unwrap();
        let dev = loaded.db.iter().next().unwrap();
        assert_eq!(
            dev.profile.cps_services().unwrap(),
            &[CpsService::EthernetIp, CpsService::ModbusTcp]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let path = tmpfile("comments");
        std::fs::write(
            &path,
            format!(
                "{HEADER}\n\n# a comment\nisp|0|US|Comcast\n\ndev|1.2.3.4|US|0|consumer:Printer\n"
            ),
        )
        .unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.db.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    /// What a loader made of a file, in comparable form: the devices,
    /// the ISP directory as `(name, country)` in id order, the metadata.
    type Contents = (
        Vec<IotDevice>,
        Vec<(String, CountryCode)>,
        BTreeMap<String, String>,
    );

    fn contents(loaded: LoadedInventory) -> Contents {
        let isps = loaded
            .isps
            .iter()
            .map(|(_, isp)| (isp.name().to_owned(), isp.country()))
            .collect();
        (loaded.db.as_slice().to_vec(), isps, loaded.meta)
    }

    /// The line a whole-file check must name, worked out the slow way
    /// from a file whose every line is well-formed: the first `dev`
    /// record whose ISP reference no `isp` record covers, or the `isp`
    /// record that is out of place once they are (stably) sorted by id.
    fn whole_file_error_line(file: &str, message: &str) -> usize {
        let records = |kind: &'static str| {
            file.split('\n')
                .enumerate()
                .map(|(i, line)| (i + 1, line.trim()))
                .filter(move |(_, line)| line.split('|').next() == Some(kind))
        };
        let id = |line: &str, field: usize| -> u32 {
            line.split('|').nth(field).unwrap().parse().unwrap()
        };
        if message.starts_with("device references unknown isp") {
            let n_isps = records("isp").count() as u32;
            let (no, _) = records("dev")
                .find(|(_, line)| id(line, 3) >= n_isps)
                .unwrap();
            no
        } else {
            assert!(message.starts_with("isp ids not dense at"), "{message}");
            let mut isps: Vec<(u32, usize)> =
                records("isp").map(|(no, line)| (id(line, 1), no)).collect();
            isps.sort_by_key(|&(id, _)| id);
            let (_, &(_, no)) = isps
                .iter()
                .enumerate()
                .find(|&(rank, &(id, _))| id != rank as u32)
                .unwrap();
            no
        }
    }

    /// Load `file` with [`parse`] and with the reference loader and
    /// require the same outcome: equal contents, or errors that print
    /// the same — except that where the reference says `line 0` (the
    /// whole-file checks) this loader names the offending record's line.
    fn check_against_reference(file: &[u8]) -> Result<Result<Contents, InventoryIoError>, String> {
        let new = parse(file).map(contents);
        let old = reference::load(file).map(contents);
        match (&new, &old) {
            (Ok(new), Ok(old)) if new == old => {}
            (
                Err(InventoryIoError::Parse { line, message }),
                Err(InventoryIoError::Parse {
                    line: 0,
                    message: old_message,
                }),
            ) if message == old_message => {
                let file = std::str::from_utf8(file).expect("every line was read");
                let expect = whole_file_error_line(file, message);
                if *line != expect {
                    return Err(format!("{message:?} at line {line}, expected {expect}"));
                }
            }
            (Err(InventoryIoError::Io(new)), Err(InventoryIoError::Io(old)))
                if new.kind() == old.kind() && new.to_string() == old.to_string() => {}
            (
                Err(new @ InventoryIoError::Parse { .. }),
                Err(old @ InventoryIoError::Parse { .. }),
            ) if new.to_string() == old.to_string() => {}
            _ => return Err(format!("loaders disagree: new {new:?}, reference {old:?}")),
        }
        Ok(new)
    }

    /// The error `file` must fail with, as printed.
    fn error_of(file: &[u8]) -> String {
        match check_against_reference(file).unwrap() {
            Ok(_) => panic!("{:?} loaded", String::from_utf8_lossy(file)),
            Err(e) => e.to_string(),
        }
    }

    /// What `file` must load to.
    fn contents_of(file: &[u8]) -> Contents {
        check_against_reference(file).unwrap().unwrap()
    }

    /// The devices `file` must load to.
    fn devices_of(file: &[u8]) -> Vec<IotDevice> {
        contents_of(file).0
    }

    fn at_line(line: usize, message: &str) -> String {
        format!("invalid inventory file at line {line}: {message}")
    }

    const NOT_UTF8: &str = "i/o error: stream did not contain valid UTF-8";

    /// A well-formed file around `lines`: header, one ISP, then `lines`
    /// from line 3 on.
    fn with_lines(lines: &str) -> Vec<u8> {
        format!("{HEADER}\nisp|0|US|Comcast\n{lines}").into_bytes()
    }

    #[test]
    fn line_endings_padding_and_comments() {
        let unix = with_lines("dev|1.2.3.4|US|0|consumer:Router\ndev|1.2.3.5|US|0|cps:Mqtt\n");
        let expect = devices_of(&unix);
        assert_eq!(expect.len(), 2);
        let text = String::from_utf8(unix.clone()).unwrap();
        // CRLF, no trailing newline, blank / comment / padded lines, and
        // a lone `\r` (white space like any other, not a line break).
        let crlf = text.replace('\n', "\r\n");
        let unterminated = text.trim_end();
        let padded = text
            .replace("\ndev", "\n\n  # note\n \t dev")
            .replace("Router", "Router  ");
        let form_feed = text.replace("Router\n", "Router\r\x0c\n");
        for variant in [&crlf, unterminated, &padded, &form_feed] {
            assert_eq!(devices_of(variant.as_bytes()), expect, "{variant:?}");
        }
        assert_eq!(devices_of(format!(" {HEADER} \r\n").as_bytes()), Vec::new());
        // Padding inside a field is part of the field.
        assert_eq!(
            error_of(&with_lines("dev| 1.2.3.4|US|0|consumer:Router\n")),
            at_line(3, "bad ip \" 1.2.3.4\"")
        );
    }

    #[test]
    fn empty_file_and_bad_headers() {
        assert_eq!(error_of(b""), at_line(1, "empty file"));
        assert_eq!(error_of(b"\n"), at_line(1, "bad header \"\""));
        assert_eq!(
            error_of(b"#iotscope-inventory v2\r\nisp|0|US|x\n"),
            at_line(1, "bad header \"#iotscope-inventory v2\"")
        );
        // `lines()` strips `\r\n`, not a `\r` that ends the file.
        assert_eq!(error_of(b"nope\r"), at_line(1, "bad header \"nope\\r\""));
        assert_eq!(error_of(b"\xff\n"), NOT_UTF8);
    }

    #[test]
    fn field_counts_are_checked_before_fields() {
        for (lines, message) in [
            ("meta|k\n", "meta needs 2 fields"),
            ("meta|k|v|w\n", "meta needs 2 fields"),
            ("meta\n", "meta needs 2 fields"),
            ("isp|1|US\n", "isp needs 3 fields"),
            ("isp|x|??|a|b\n", "isp needs 3 fields"),
            ("dev|1.2.3.4|US|0\n", "dev needs 4 fields"),
            ("dev|bad|??|x|y|z\n", "dev needs 4 fields"),
            ("dev\n", "dev needs 4 fields"),
            ("Dev|1.2.3.4|US|0|cps:Mqtt\n", "unknown record kind \"Dev\""),
            ("|\n", "unknown record kind \"\""),
        ] {
            assert_eq!(
                error_of(&with_lines(lines)),
                at_line(3, message),
                "{lines:?}"
            );
        }
        // An empty value is a value.
        let (_, _, meta) = contents_of(&with_lines("meta|k|\nmeta||v\nmeta|k|last\n"));
        assert_eq!(meta["k"], "last");
        assert_eq!(meta[""], "v");
    }

    #[test]
    fn addresses_follow_std() {
        for bad in [
            "01.2.3.4",
            "1.2.3",
            "256.1.1.1",
            "1.2.3.4.5",
            "",
            "1.2.3.4 ",
            "1..3.4",
        ] {
            assert_eq!(
                error_of(&with_lines(&format!(
                    "dev|{bad}|US|0|consumer:Router\n# c\n"
                ))),
                at_line(3, &format!("bad ip {bad:?}")),
            );
        }
        let devices = devices_of(&with_lines(
            "dev|0.0.0.0|US|0|consumer:Router\ndev|255.255.255.255|US|0|consumer:Router\n",
        ));
        assert_eq!(devices[0].ip, Ipv4Addr::new(0, 0, 0, 0));
        assert_eq!(devices[1].ip, Ipv4Addr::new(255, 255, 255, 255));
    }

    #[test]
    fn isp_references_follow_std() {
        // `+0` is what `u32::from_str` takes it for; so is `00`.
        let devices = devices_of(&with_lines(
            "dev|1.2.3.4|US|+0|consumer:Router\ndev|1.2.3.5|US|00|consumer:Router\n",
        ));
        assert_eq!(devices[0].isp, IspId(0));
        assert_eq!(devices[1].isp, IspId(0));
        for bad in ["-1", "4294967296", "", "0x1", " 0"] {
            assert_eq!(
                error_of(&with_lines(&format!(
                    "dev|1.2.3.4|US|{bad}|consumer:Router\n"
                ))),
                at_line(3, &format!("bad isp ref {bad:?}")),
            );
            assert_eq!(
                error_of(&with_lines(&format!("isp|{bad}|US|Verizon\n"))),
                at_line(3, &format!("bad isp id {bad:?}")),
            );
        }
        // A reference that parses is checked against the directory last.
        assert_eq!(
            error_of(&with_lines("dev|1.2.3.4|US|+5|consumer:Router\n")),
            at_line(3, "device references unknown isp 5")
        );
        assert_eq!(
            error_of(&with_lines("dev|1.2.3.4|US|4294967295|consumer:Router\n")),
            at_line(3, "device references unknown isp 4294967295")
        );
    }

    #[test]
    fn countries_kinds_and_services_must_be_known() {
        for (lines, message) in [
            (
                "dev|1.2.3.4|us|0|consumer:Router\n",
                "unknown country \"us\"",
            ),
            ("dev|1.2.3.4||0|consumer:Router\n", "unknown country \"\""),
            ("isp|1|XX|Nowhere Net\n", "unknown country \"XX\""),
            (
                "dev|1.2.3.4|US|0|consumer:Fridge\n",
                "unknown consumer kind \"Fridge\"",
            ),
            ("dev|1.2.3.4|US|0|consumer:\n", "unknown consumer kind \"\""),
            (
                "dev|1.2.3.4|US|0|consumer:Routers\n",
                "unknown consumer kind \"Routers\"",
            ),
            ("dev|1.2.3.4|US|0|cps:\n", "unknown cps service \"\""),
            (
                "dev|1.2.3.4|US|0|cps:Mqtt++Dnp3\n",
                "unknown cps service \"\"",
            ),
            ("dev|1.2.3.4|US|0|cps:Mqtt+\n", "unknown cps service \"\""),
            (
                "dev|1.2.3.4|US|0|cps:Mqtt+mqtt\n",
                "unknown cps service \"mqtt\"",
            ),
            (
                "dev|1.2.3.4|US|0|cps:MQ Telemetry Transport\n",
                "unknown cps service \"MQ Telemetry Transport\"",
            ),
            (
                "dev|1.2.3.4|US|0|Consumer:Router\n",
                "unknown profile \"Consumer:Router\"",
            ),
            ("dev|1.2.3.4|US|0|\n", "unknown profile \"\""),
            // Fields are checked left to right.
            ("dev|1.2.3|??|x|y\n", "bad ip \"1.2.3\""),
            ("dev|1.2.3.4|??|x|y\n", "unknown country \"??\""),
            ("dev|1.2.3.4|US|x|y\n", "bad isp ref \"x\""),
        ] {
            assert_eq!(
                error_of(&with_lines(lines)),
                at_line(3, message),
                "{lines:?}"
            );
        }
        // Every name `save` can write is one `load` reads, in any
        // number and order, repeats included.
        let all: Vec<String> = CpsService::ALL.iter().map(|s| format!("{s:?}")).collect();
        let mut lines = format!("dev|9.9.9.9|US|0|cps:{}+Mqtt\n", all.join("+"));
        for (i, kind) in ConsumerKind::ALL.iter().enumerate() {
            lines += &format!("dev|1.1.1.{i}|US|0|consumer:{kind:?}\n");
        }
        let devices = devices_of(&with_lines(&lines));
        let mut services = CpsService::ALL.to_vec();
        services.push(CpsService::Mqtt);
        assert_eq!(devices[0].profile, DeviceProfile::Cps(services));
        for (d, kind) in devices[1..].iter().zip(ConsumerKind::ALL) {
            assert_eq!(d.profile, DeviceProfile::Consumer(kind));
        }
    }

    #[test]
    fn whole_file_checks_name_the_offending_record() {
        // ISP records in any order, anywhere in the file, are fine …
        let shuffled = format!(
            "{HEADER}\ndev|1.2.3.4|US|2|consumer:Router\nisp|2|US|C\nisp|0|US|A\n\nisp|1|RU|B\n"
        );
        let (devices, isps, _) = contents_of(shuffled.as_bytes());
        assert_eq!(devices[0].isp, IspId(2));
        assert_eq!(
            isps[2],
            ("C".to_owned(), CountryCode::from_code("US").unwrap())
        );
        // … a gap is reported at the record after it, a repeated id at
        // the repeat, and both before any device's reference.
        for (file, line, message) in [
            ("isp|0|US|A\nisp|3|US|D\nisp|2|US|C\n", 4, "isp ids not dense at 2"),
            ("isp|1|US|B\n", 2, "isp ids not dense at 1"),
            ("isp|0|US|A\nisp|1|US|B\n# c\nisp|0|US|A again\n", 5, "isp ids not dense at 0"),
            (
                "dev|1.2.3.4|US|7|consumer:Router\nisp|0|US|A\nisp|0|US|A\n",
                4,
                "isp ids not dense at 0",
            ),
            // The first device in file order that points past the
            // directory, whether or not a later one points further or
            // shares its address with an earlier one.
            (
                "isp|0|US|A\ndev|1.1.1.1|US|0|cps:Mqtt\n\ndev|1.1.1.1|US|1|cps:Mqtt\ndev|1.1.1.2|US|9|cps:Mqtt\n",
                5,
                "device references unknown isp 1",
            ),
            (
                "dev|1.1.1.1|US|5|cps:Mqtt\ndev|1.1.1.2|US|2|cps:Mqtt\nisp|0|US|A\nisp|1|US|B\nisp|2|US|C\n",
                2,
                "device references unknown isp 5",
            ),
            (
                "dev|1.1.1.1|US|1|cps:Mqtt\ndev|1.1.1.2|US|3|cps:Mqtt\ndev|1.1.1.3|US|2|cps:Mqtt\nisp|0|US|A\nisp|1|US|B\nisp|2|US|C\n",
                3,
                "device references unknown isp 3",
            ),
            ("dev|1.1.1.1|US|0|cps:Mqtt\n", 2, "device references unknown isp 0"),
        ] {
            assert_eq!(
                error_of(format!("{HEADER}\n{file}").as_bytes()),
                at_line(line, message),
                "{file:?}"
            );
        }
    }

    #[test]
    fn duplicate_addresses_keep_the_first_and_ids_stay_dense() {
        let devices = devices_of(&with_lines(
            "dev|1.1.1.1|US|0|consumer:Router\n\
             dev|2.2.2.2|US|0|consumer:Printer\n\
             dev|1.1.1.1|RU|0|cps:Mqtt\n\
             dev|3.3.3.3|US|0|cps:Dnp3\n\
             dev|2.2.2.2|US|0|consumer:Printer\n\
             dev|0.0.0.1|US|0|consumer:IpCamera\n",
        ));
        let got: Vec<(u32, Ipv4Addr, &str)> = devices
            .iter()
            .map(|d| (d.id.0, d.ip, d.country.code()))
            .collect();
        assert_eq!(
            got,
            [
                (0, Ipv4Addr::new(1, 1, 1, 1), "US"),
                (1, Ipv4Addr::new(2, 2, 2, 2), "US"),
                (2, Ipv4Addr::new(3, 3, 3, 3), "US"),
                (3, Ipv4Addr::new(0, 0, 0, 1), "US"),
            ]
        );
    }

    #[test]
    fn a_line_that_is_not_utf8_fails_where_the_scan_reaches_it() {
        // Alone, anywhere in its line, terminated or not.
        for lines in [
            "dev|1.2.3.4|US|0|consumer:Rou\u{0}ter\n",
            "\u{0}\n",
            "# \u{0}",
            "dev|1.2.3.4|US|0|consumer:Router\n\u{0}dev|bad\nbogus\n",
        ] {
            let file = with_lines(lines);
            let file: Vec<u8> = file
                .iter()
                .map(|&b| if b == 0 { 0xff } else { b })
                .collect();
            assert_eq!(error_of(&file), NOT_UTF8, "{lines:?}");
        }
        // After a malformed line, the malformed line is the error …
        let mut file = with_lines("dev|1.2.3|US|0|consumer:Router\n# \u{0}\n");
        let nul = file.iter().position(|&b| b == 0).unwrap();
        file[nul] = 0xc3; // a lead byte with no continuation
        assert_eq!(error_of(&file), at_line(3, "bad ip \"1.2.3\""));
        // … but before a whole-file error it is not.
        let mut file = with_lines("dev|1.2.3.4|US|7|consumer:Router\n# \u{0}\n");
        let nul = file.iter().position(|&b| b == 0).unwrap();
        file[nul] = 0xc3;
        assert_eq!(error_of(&file), NOT_UTF8);
        // White space that is not ASCII is still white space.
        let devices = devices_of(&with_lines(
            "\u{a0}dev|1.2.3.4|US|0|consumer:Router\u{2003}\n\u{3000}\n",
        ));
        assert_eq!(devices.len(), 1);
    }

    #[test]
    fn save_writes_what_the_reference_writer_wrote() {
        let out = InventoryBuilder::new(SynthConfig::small(7)).build();
        let mut meta = BTreeMap::new();
        meta.insert("seed".to_owned(), "7".to_owned());
        meta.insert("size".to_owned(), "tiny".to_owned());
        let path = tmpfile("save-reference");
        for db in [
            out.db.clone(),
            DeviceDb::new(),
            // Every octet width, a large ISP id, an empty service list.
            DeviceDb::from_devices(
                [[0, 9, 10, 99], [100, 199, 200, 255], [1, 1, 1, 1]]
                    .into_iter()
                    .zip([
                        DeviceProfile::Consumer(ConsumerKind::ElectricHub),
                        DeviceProfile::Cps(CpsService::ALL.to_vec()),
                        DeviceProfile::Cps(Vec::new()),
                    ])
                    .map(|(ip, profile)| IotDevice {
                        id: DeviceId(0),
                        ip: Ipv4Addr::from(ip),
                        profile,
                        country: CountryCode::from_code("PR").unwrap(),
                        isp: IspId(out.isps.len() as u32 - 1),
                    }),
            ),
        ] {
            let mut expect = Vec::new();
            reference::save(&mut expect, &db, &out.isps, &meta).unwrap();
            save(&path, &db, &out.isps, &meta).unwrap();
            let written = std::fs::read(&path).unwrap();
            assert!(written == expect, "save differs from the reference writer");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn save_of_a_loaded_file_is_the_file() {
        let out = InventoryBuilder::new(SynthConfig::small(7)).build();
        let meta = BTreeMap::from([("seed".to_owned(), "7".to_owned())]);
        let (first, second) = (tmpfile("fixpoint-1"), tmpfile("fixpoint-2"));
        save(&first, &out.db, &out.isps, &meta).unwrap();
        let file = std::fs::read(&first).unwrap();
        // The file on disk goes through `load`'s own reader, which hands
        // `parse` a line in pieces wherever it straddles two reads.
        assert_eq!(contents(load(&first).unwrap()), contents_of(&file));
        let loaded = load(&first).unwrap();
        save(&second, &loaded.db, &loaded.isps, &loaded.meta).unwrap();
        assert!(
            std::fs::read(&second).unwrap() == file,
            "save(load(f)) != f"
        );
        std::fs::remove_file(&first).unwrap();
        std::fs::remove_file(&second).unwrap();
    }

    /// One field of a generated record: usually a value that can be
    /// right, now and then one of the named wrong ones.
    fn field(
        good: impl Strategy<Value = String> + 'static,
        bad: &'static [&'static str],
    ) -> impl Strategy<Value = String> {
        (0usize..12, good, 0..bad.len()).prop_map(
            move |(roll, good, i)| {
                if roll == 0 {
                    bad[i].to_owned()
                } else {
                    good
                }
            },
        )
    }

    /// One of 24 addresses, so that generated files repeat some.
    fn address(i: u32) -> String {
        Ipv4Addr::from(0x0a00_00fe + i * 0x55).to_string()
    }

    fn profile_strategy() -> impl Strategy<Value = String> {
        prop_oneof![
            (0..ConsumerKind::ALL.len())
                .prop_map(|i| format!("consumer:{:?}", ConsumerKind::ALL[i])),
            proptest::collection::vec(0..CpsService::ALL.len(), 1..4).prop_map(|list| {
                let names: Vec<String> = list
                    .iter()
                    .map(|&i| format!("{:?}", CpsService::ALL[i]))
                    .collect();
                format!("cps:{}", names.join("+"))
            }),
        ]
    }

    fn country_strategy() -> impl Strategy<Value = String> {
        (0..CountryCode::count()).prop_map(|i| CountryCode::all().nth(i).unwrap().code().to_owned())
    }

    /// A line that may be anything: a `dev` or `isp` record whose every
    /// field is now and then one of the named wrong values, with ISP ids
    /// and references from a small range so that gaps, repeats and
    /// dangling references happen; or no record at all.
    fn wild_line() -> impl Strategy<Value = String> {
        let isp_ref = || {
            field(
                (0u32..4).prop_map(|i| i.to_string()),
                &["+1", "-1", "4294967296", "", "7"],
            )
        };
        let country = || field(country_strategy(), &["XX", "us", "", "USA"]);
        let dev = (
            field(
                (0u32..24).prop_map(address),
                &[
                    "01.2.3.4",
                    "1.2.3",
                    "256.1.1.1",
                    "1.2.3.4.5",
                    "",
                    " 1.2.3.4",
                ],
            ),
            country(),
            isp_ref(),
            field(
                profile_strategy(),
                &[
                    "consumer:Fridge",
                    "cps:",
                    "cps:Mqtt++Dnp3",
                    "router",
                    "cps:Mqtt|x",
                ],
            ),
        )
            .prop_map(|(ip, cc, isp, profile)| format!("dev|{ip}|{cc}|{isp}|{profile}"));
        let isp = (isp_ref(), country(), "\\PC{0,12}")
            .prop_map(|(id, cc, name)| format!("isp|{id}|{cc}|{name}"));
        let other = (0usize..7).prop_map(|i| {
            [
                "",
                "   ",
                "# comment | with | bars",
                "meta|seed|7",
                "meta|seed",
                "bogus|1|2",
                "dev",
            ][i]
                .to_owned()
        });
        prop_oneof![dev, isp, other]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Generated inventories load to what the reference loader makes
        /// of them, error text and line included. A file is ISP records
        /// `0..n_isps`, then well-formed `dev` records that reference
        /// them (so that about half the files load, duplicates and all),
        /// with up to two lines that may be anything put in anywhere and
        /// up to two bytes replaced, inserted or deleted.
        #[test]
        fn prop_load_matches_reference(
            n_isps in 1u32..5,
            devs in proptest::collection::vec(
                (0u32..24, country_strategy(), any::<u32>(), profile_strategy()),
                0..30,
            ),
            wild in proptest::collection::vec((any::<usize>(), wild_line()), 0..3),
            crlf in any::<bool>(),
            unterminated in any::<bool>(),
            mutations in proptest::collection::vec((any::<usize>(), any::<u8>(), 0u8..3), 0..3),
        ) {
            let mut lines = vec![HEADER.to_owned()];
            lines.extend((0..n_isps).map(|id| format!("isp|{id}|US|AS-US-{id}")));
            lines.extend(devs.into_iter().map(|(ip, cc, isp, profile)| {
                format!("dev|{}|{cc}|{}|{profile}", address(ip), isp % n_isps)
            }));
            for (at, line) in wild {
                lines.insert(at % (lines.len() + 1), line);
            }
            let mut text = lines.join("\n");
            if !unterminated {
                text.push('\n');
            }
            if crlf {
                text = text.replace('\n', "\r\n");
            }
            let mut file = text.into_bytes();
            for (at, byte, op) in mutations {
                let at = at % file.len();
                match op {
                    0 => file[at] = byte,
                    1 => file.insert(at, byte),
                    _ => {
                        file.remove(at);
                    }
                }
            }
            if let Err(why) = check_against_reference(&file) {
                return Err(TestCaseError::fail(format!(
                    "{why}\nfile: {:?}",
                    String::from_utf8_lossy(&file)
                )));
            }
        }
    }
}
