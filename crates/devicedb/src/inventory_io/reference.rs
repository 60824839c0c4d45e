//! The loader and writer as they stood before the one-pass rewrite, kept
//! as the oracle the tests compare [`super::load`] and [`super::save`]
//! against: a `String` per line, a `Vec` of fields, every candidate
//! variant `format!`ted per lookup, rows staged and pushed one by one.
//! The bodies are verbatim except that they take a reader / writer in
//! place of a path, and that the country lookup is a linear scan.

use super::{parse_err, InventoryIoError, LoadedInventory, HEADER};
use crate::db::DeviceDb;
use crate::device::{DeviceId, DeviceProfile, IotDevice};
use crate::geo::CountryCode;
use crate::isp::{IspId, IspRegistry};
use crate::taxonomy::{ConsumerKind, CpsService};
use std::collections::BTreeMap;
use std::io::{BufRead, Write};

pub fn save(
    mut w: impl Write,
    db: &DeviceDb,
    isps: &IspRegistry,
    meta: &BTreeMap<String, String>,
) -> Result<(), InventoryIoError> {
    writeln!(w, "{HEADER}")?;
    for (k, v) in meta {
        writeln!(w, "meta|{k}|{v}")?;
    }
    // Only the ISPs that devices actually reference, renumbered densely.
    let mut used: BTreeMap<IspId, u32> = BTreeMap::new();
    for d in db.iter() {
        let next = used.len() as u32;
        used.entry(d.isp).or_insert(next);
    }
    let mut rows: Vec<(u32, IspId)> = used.iter().map(|(id, n)| (*n, *id)).collect();
    rows.sort();
    for (n, id) in rows {
        let isp = isps.isp(id);
        writeln!(w, "isp|{n}|{}|{}", isp.country().code(), isp.name())?;
    }
    for d in db.iter() {
        let profile = match &d.profile {
            DeviceProfile::Consumer(kind) => format!("consumer:{kind:?}"),
            DeviceProfile::Cps(services) => {
                let names: Vec<String> = services.iter().map(|s| format!("{s:?}")).collect();
                format!("cps:{}", names.join("+"))
            }
        };
        writeln!(
            w,
            "dev|{}|{}|{}|{profile}",
            d.ip,
            d.country.code(),
            used[&d.isp]
        )?;
    }
    w.flush()?;
    Ok(())
}

pub fn load(reader: impl BufRead) -> Result<LoadedInventory, InventoryIoError> {
    let mut lines = reader.lines();
    let first = lines
        .next()
        .transpose()?
        .ok_or_else(|| parse_err(1, "empty file"))?;
    if first.trim() != HEADER {
        return Err(parse_err(1, format!("bad header {first:?}")));
    }
    let mut meta = BTreeMap::new();
    let mut isp_rows: Vec<(u32, CountryCode, String)> = Vec::new();
    let mut dev_rows: Vec<(std::net::Ipv4Addr, CountryCode, u32, DeviceProfile)> = Vec::new();
    for (no, line) in lines.enumerate() {
        let lineno = no + 2;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('|').collect();
        match fields[0] {
            "meta" => {
                if fields.len() != 3 {
                    return Err(parse_err(lineno, "meta needs 2 fields"));
                }
                meta.insert(fields[1].to_owned(), fields[2].to_owned());
            }
            "isp" => {
                if fields.len() != 4 {
                    return Err(parse_err(lineno, "isp needs 3 fields"));
                }
                let id: u32 = fields[1]
                    .parse()
                    .map_err(|_| parse_err(lineno, format!("bad isp id {:?}", fields[1])))?;
                let country = parse_country(fields[2], lineno)?;
                isp_rows.push((id, country, fields[3].to_owned()));
            }
            "dev" => {
                if fields.len() != 5 {
                    return Err(parse_err(lineno, "dev needs 4 fields"));
                }
                let ip: std::net::Ipv4Addr = fields[1]
                    .parse()
                    .map_err(|_| parse_err(lineno, format!("bad ip {:?}", fields[1])))?;
                let country = parse_country(fields[2], lineno)?;
                let isp: u32 = fields[3]
                    .parse()
                    .map_err(|_| parse_err(lineno, format!("bad isp ref {:?}", fields[3])))?;
                let profile = parse_profile(fields[4], lineno)?;
                dev_rows.push((ip, country, isp, profile));
            }
            other => {
                return Err(parse_err(lineno, format!("unknown record kind {other:?}")));
            }
        }
    }
    // Build the ISP registry in saved-id order.
    isp_rows.sort_by_key(|(id, _, _)| *id);
    for (expect, (id, _, _)) in isp_rows.iter().enumerate() {
        if *id != expect as u32 {
            return Err(parse_err(0, format!("isp ids not dense at {id}")));
        }
    }
    let n_isps = isp_rows.len() as u32;
    let isps = IspRegistry::from_names(
        isp_rows
            .into_iter()
            .map(|(_, country, name)| (name, country)),
    );
    let mut db = DeviceDb::new();
    for (ip, country, isp, profile) in dev_rows {
        if isp >= n_isps {
            return Err(parse_err(0, format!("device references unknown isp {isp}")));
        }
        db.push(IotDevice {
            id: DeviceId(0),
            ip,
            profile,
            country,
            isp: IspId(isp),
        });
    }
    Ok(LoadedInventory { db, isps, meta })
}

fn parse_country(code: &str, line: usize) -> Result<CountryCode, InventoryIoError> {
    CountryCode::all()
        .find(|c| c.code() == code)
        .ok_or_else(|| parse_err(line, format!("unknown country {code:?}")))
}

fn parse_profile(text: &str, line: usize) -> Result<DeviceProfile, InventoryIoError> {
    if let Some(kind) = text.strip_prefix("consumer:") {
        let kind = ConsumerKind::ALL
            .into_iter()
            .find(|k| format!("{k:?}") == kind)
            .ok_or_else(|| parse_err(line, format!("unknown consumer kind {kind:?}")))?;
        return Ok(DeviceProfile::Consumer(kind));
    }
    if let Some(list) = text.strip_prefix("cps:") {
        let mut services = Vec::new();
        for name in list.split('+') {
            let svc = CpsService::ALL
                .into_iter()
                .find(|s| format!("{s:?}") == name)
                .ok_or_else(|| parse_err(line, format!("unknown cps service {name:?}")))?;
            services.push(svc);
        }
        if services.is_empty() {
            return Err(parse_err(line, "cps profile needs at least one service"));
        }
        return Ok(DeviceProfile::Cps(services));
    }
    Err(parse_err(line, format!("unknown profile {text:?}")))
}
