//! Country registry and the paper's geographic calibration weights.
//!
//! Weights come from the published marginals: Fig 1a (deployment, top 15
//! countries with cumulative 69.3%), §III-B1 (compromised consumer
//! population, e.g. Russia 32%), and §III-B2 (compromised CPS population,
//! e.g. China 17%). Countries beyond the named ones carry small filler
//! weights so populations span many countries, as in the paper (161
//! countries hosting compromised devices).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A two-letter country code, e.g. `"RU"`.
///
/// Codes are interned as indices into the static country table, so the type
/// is `Copy` and cheap to key maps with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CountryCode(u8);

impl CountryCode {
    /// Look up a code such as `"RU"`; `None` for unknown codes.
    ///
    /// Two upper-case ASCII letters — every code in the table — resolve
    /// through one load from a 26×26 table; anything else takes the
    /// linear scan, so a future code of another shape still resolves.
    pub fn from_code(code: &str) -> Option<CountryCode> {
        if let Some(slot) = code_slot(code) {
            let index = CODE_INDEX[slot];
            return (index != NO_COUNTRY).then_some(CountryCode(index));
        }
        COUNTRIES
            .iter()
            .position(|c| c.code == code)
            .map(|i| CountryCode(i as u8))
    }

    /// The two-letter code.
    pub fn code(self) -> &'static str {
        COUNTRIES[self.0 as usize].code
    }

    /// The human-readable name the paper uses (e.g. `"Russian F."`).
    pub fn name(self) -> &'static str {
        COUNTRIES[self.0 as usize].name
    }

    /// Calibration record for this country.
    pub fn info(self) -> &'static CountryInfo {
        &COUNTRIES[self.0 as usize]
    }

    /// All registered countries.
    pub fn all() -> impl Iterator<Item = CountryCode> {
        (0..COUNTRIES.len()).map(|i| CountryCode(i as u8))
    }

    /// Number of registered countries.
    pub fn count() -> usize {
        COUNTRIES.len()
    }

    /// Dense index into the country table (stable within a build).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CountryCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-country calibration weights (relative, normalized at sampling time).
#[derive(Debug, Clone, PartialEq)]
pub struct CountryInfo {
    /// ISO-like two-letter code.
    pub code: &'static str,
    /// Display name (matching the paper's labels where it names the
    /// country).
    pub name: &'static str,
    /// Relative share of *deployed* devices (Fig 1a shape).
    pub deploy_weight: f64,
    /// Fraction of this country's deployed devices that are CPS. Fig 1a
    /// shows consumer > CPS everywhere except China, France, Canada,
    /// Vietnam, Taiwan and Spain.
    pub cps_deploy_share: f64,
    /// Relative share of the *compromised consumer* population (§III-B1).
    pub consumer_comp_weight: f64,
    /// Relative share of the *compromised CPS* population (§III-B2).
    pub cps_comp_weight: f64,
}

const fn c(
    code: &'static str,
    name: &'static str,
    deploy_weight: f64,
    cps_deploy_share: f64,
    consumer_comp_weight: f64,
    cps_comp_weight: f64,
) -> CountryInfo {
    CountryInfo {
        code,
        name,
        deploy_weight,
        cps_deploy_share,
        consumer_comp_weight,
        cps_comp_weight,
    }
}

/// The static country table.
///
/// Deployment weights for the top 15 match Fig 1a (cumulative 69.3%);
/// compromised weights are reconstructed from §III-B so that the joint
/// shape (Fig 1b ordering, Russia ≈31% compromised vs U.S. ≈2.4%) emerges.
pub static COUNTRIES: &[CountryInfo] = &[
    // ---- Fig 1a top 15 (deployment) ----
    c("US", "U.S.", 25.0, 0.43, 9.0, 6.9),
    c("GB", "U.K.", 6.0, 0.40, 1.0, 1.2),
    // Russia's *benign* deployment weight is set below its Fig 1a share
    // (5.9%) because the planted compromised population adds ~4.5k Russian
    // devices on top; the totals land on the Fig 1a ordering.
    c("RU", "Russian F.", 4.7, 0.35, 32.0, 14.8),
    c("CN", "China", 5.0, 0.62, 2.2, 17.0),
    c("KR", "R. of Korea", 4.8, 0.42, 3.0, 8.3),
    c("FR", "France", 4.5, 0.60, 0.8, 2.2),
    c("IT", "Italy", 3.6, 0.40, 0.9, 2.2),
    c("DE", "Germany", 3.4, 0.40, 0.9, 2.2),
    c("CA", "Canada", 3.2, 0.60, 0.5, 1.0),
    c("AU", "Australia", 2.8, 0.40, 0.6, 1.0),
    c("VN", "Vietnam", 2.6, 0.60, 2.5, 1.8),
    c("TW", "Taiwan", 2.4, 0.62, 2.0, 2.8),
    c("BR", "Brazil", 2.2, 0.42, 3.0, 2.2),
    c("ES", "Spain", 2.0, 0.58, 0.7, 0.8),
    c("MX", "Mexico", 1.9, 0.40, 1.8, 0.8),
    // ---- Fig 1b newcomers (high compromise, modest deployment) ----
    c("TH", "Thailand", 1.0, 0.40, 4.0, 2.0),
    c("ID", "Indonesia", 1.0, 0.40, 4.0, 1.5),
    c("SG", "Singapore", 0.6, 0.45, 2.0, 2.0),
    c("TR", "Turkey", 1.3, 0.40, 2.5, 3.2),
    c("UA", "Ukraine", 0.9, 0.35, 2.5, 2.5),
    c("IN", "India", 1.4, 0.40, 2.5, 2.5),
    c("PH", "Philippine", 0.6, 0.35, 2.2, 0.5),
    // ---- remaining named countries (filler weights) ----
    c("JP", "Japan", 1.8, 0.45, 0.4, 1.0),
    c("NL", "Netherlands", 1.5, 0.40, 0.5, 0.8),
    c("PL", "Poland", 1.4, 0.40, 0.8, 0.6),
    c("SE", "Sweden", 1.2, 0.40, 0.3, 0.4),
    c("CH", "Switzerland", 1.1, 0.45, 0.2, 0.8),
    c("AR", "Argentina", 1.0, 0.40, 0.8, 0.5),
    c("GR", "Greece", 0.8, 0.40, 0.4, 0.3),
    c("PT", "Portugal", 0.8, 0.40, 0.3, 0.3),
    c("CZ", "Czechia", 0.8, 0.40, 0.4, 0.4),
    c("RO", "Romania", 0.8, 0.40, 0.7, 0.5),
    c("BE", "Belgium", 0.8, 0.40, 0.2, 0.3),
    c("AT", "Austria", 0.7, 0.40, 0.2, 0.3),
    c("NO", "Norway", 0.7, 0.40, 0.2, 0.2),
    c("DK", "Denmark", 0.7, 0.40, 0.2, 0.2),
    c("FI", "Finland", 0.7, 0.40, 0.2, 0.2),
    c("IE", "Ireland", 0.6, 0.40, 0.2, 0.2),
    c("HU", "Hungary", 0.6, 0.40, 0.3, 0.3),
    c("BG", "Bulgaria", 0.6, 0.40, 0.5, 0.4),
    c("MY", "Malaysia", 0.6, 0.40, 0.5, 0.4),
    c("HK", "Hong Kong", 0.6, 0.45, 0.5, 0.6),
    c("NZ", "New Zealand", 0.5, 0.40, 0.2, 0.2),
    c("CL", "Chile", 0.5, 0.40, 0.4, 0.3),
    c("CO", "Colombia", 0.5, 0.40, 0.4, 0.3),
    c("ZA", "South Africa", 0.5, 0.42, 0.4, 0.5),
    c("IL", "Israel", 0.5, 0.42, 0.2, 0.3),
    c("PE", "Peru", 0.4, 0.40, 0.3, 0.2),
    c("VE", "Venezuela", 0.4, 0.40, 0.3, 0.2),
    c("EG", "Egypt", 0.4, 0.40, 0.4, 0.3),
    c("SA", "Saudi Arabia", 0.4, 0.42, 0.3, 0.3),
    c("AE", "U.A.E.", 0.4, 0.42, 0.2, 0.3),
    c("IR", "Iran", 0.3, 0.42, 0.4, 0.4),
    c("PK", "Pakistan", 0.3, 0.40, 0.4, 0.3),
    c("KZ", "Kazakhstan", 0.3, 0.40, 0.4, 0.3),
    c("BY", "Belarus", 0.3, 0.38, 0.4, 0.3),
    c("RS", "Serbia", 0.3, 0.40, 0.3, 0.2),
    c("HR", "Croatia", 0.3, 0.40, 0.2, 0.2),
    c("SK", "Slovakia", 0.3, 0.40, 0.2, 0.2),
    c("DO", "Dominican R.", 0.2, 0.35, 0.3, 0.1),
    c("EC", "Ecuador", 0.2, 0.40, 0.2, 0.1),
    c("SI", "Slovenia", 0.2, 0.40, 0.1, 0.1),
    c("LT", "Lithuania", 0.2, 0.40, 0.2, 0.1),
    c("LV", "Latvia", 0.2, 0.40, 0.2, 0.1),
    c("EE", "Estonia", 0.2, 0.40, 0.1, 0.1),
    c("BD", "Bangladesh", 0.2, 0.40, 0.3, 0.1),
    c("LK", "Sri Lanka", 0.2, 0.40, 0.2, 0.1),
    c("MA", "Morocco", 0.2, 0.40, 0.2, 0.1),
    c("NG", "Nigeria", 0.2, 0.40, 0.2, 0.1),
    c("AZ", "Azerbaijan", 0.1, 0.40, 0.1, 0.1),
    c("GE", "Georgia", 0.1, 0.40, 0.1, 0.1),
    c("MD", "Moldova", 0.1, 0.38, 0.2, 0.1),
    c("BA", "Bosnia", 0.1, 0.40, 0.1, 0.1),
    c("CY", "Cyprus", 0.1, 0.40, 0.1, 0.1),
    c("LU", "Luxembourg", 0.1, 0.40, 0.05, 0.05),
    c("TN", "Tunisia", 0.1, 0.40, 0.1, 0.1),
    c("KE", "Kenya", 0.1, 0.40, 0.1, 0.1),
    c("JO", "Jordan", 0.1, 0.40, 0.1, 0.1),
    c("LB", "Lebanon", 0.1, 0.40, 0.1, 0.1),
    c("KW", "Kuwait", 0.1, 0.42, 0.05, 0.1),
    c("QA", "Qatar", 0.1, 0.42, 0.05, 0.1),
    c("IQ", "Iraq", 0.1, 0.40, 0.1, 0.1),
    c("UY", "Uruguay", 0.1, 0.40, 0.1, 0.05),
    c("BO", "Bolivia", 0.1, 0.40, 0.1, 0.05),
    c("PY", "Paraguay", 0.1, 0.40, 0.1, 0.05),
    c("CR", "Costa Rica", 0.1, 0.40, 0.1, 0.05),
    c("PA", "Panama", 0.1, 0.40, 0.1, 0.05),
    c("DZ", "Algeria", 0.1, 0.40, 0.1, 0.05),
    c("GH", "Ghana", 0.1, 0.40, 0.1, 0.05),
    c("IS", "Iceland", 0.05, 0.40, 0.02, 0.02),
    c("MT", "Malta", 0.05, 0.40, 0.02, 0.02),
    c("MK", "N. Macedonia", 0.05, 0.40, 0.05, 0.02),
    c("AL", "Albania", 0.05, 0.40, 0.05, 0.02),
    c("ME", "Montenegro", 0.05, 0.40, 0.02, 0.02),
    c("AM", "Armenia", 0.05, 0.40, 0.05, 0.02),
    c("SN", "Senegal", 0.05, 0.40, 0.02, 0.02),
    c("CM", "Cameroon", 0.05, 0.40, 0.02, 0.02),
    c("OM", "Oman", 0.05, 0.42, 0.02, 0.02),
    c("BH", "Bahrain", 0.05, 0.42, 0.02, 0.02),
    // ---- long tail: the paper saw compromised devices in 161 countries ----
    c("NP", "Nepal", 0.05, 0.40, 0.06, 0.03),
    c("MM", "Myanmar", 0.05, 0.40, 0.06, 0.03),
    c("KH", "Cambodia", 0.05, 0.40, 0.06, 0.03),
    c("LA", "Laos", 0.03, 0.40, 0.04, 0.02),
    c("MN", "Mongolia", 0.03, 0.40, 0.04, 0.02),
    c("BN", "Brunei", 0.03, 0.42, 0.02, 0.02),
    c("MV", "Maldives", 0.02, 0.40, 0.02, 0.01),
    c("BT", "Bhutan", 0.02, 0.40, 0.02, 0.01),
    c("AF", "Afghanistan", 0.03, 0.40, 0.04, 0.02),
    c("UZ", "Uzbekistan", 0.05, 0.40, 0.06, 0.04),
    c("TM", "Turkmenistan", 0.02, 0.40, 0.02, 0.01),
    c("TJ", "Tajikistan", 0.02, 0.40, 0.03, 0.01),
    c("KG", "Kyrgyzstan", 0.03, 0.40, 0.04, 0.02),
    c("SY", "Syria", 0.03, 0.40, 0.04, 0.02),
    c("YE", "Yemen", 0.02, 0.40, 0.03, 0.01),
    c("PS", "Palestine", 0.03, 0.40, 0.03, 0.02),
    c("ET", "Ethiopia", 0.03, 0.40, 0.03, 0.02),
    c("TZ", "Tanzania", 0.03, 0.40, 0.03, 0.02),
    c("UG", "Uganda", 0.03, 0.40, 0.03, 0.02),
    c("ZM", "Zambia", 0.03, 0.40, 0.03, 0.02),
    c("ZW", "Zimbabwe", 0.03, 0.40, 0.03, 0.02),
    c("MZ", "Mozambique", 0.02, 0.40, 0.02, 0.01),
    c("AO", "Angola", 0.03, 0.40, 0.03, 0.02),
    c("NA", "Namibia", 0.02, 0.40, 0.02, 0.01),
    c("BW", "Botswana", 0.02, 0.42, 0.02, 0.01),
    c("MW", "Malawi", 0.02, 0.40, 0.02, 0.01),
    c("RW", "Rwanda", 0.02, 0.40, 0.02, 0.01),
    c("CI", "Ivory Coast", 0.03, 0.40, 0.03, 0.02),
    c("BF", "Burkina Faso", 0.02, 0.40, 0.02, 0.01),
    c("ML", "Mali", 0.02, 0.40, 0.02, 0.01),
    c("NE", "Niger", 0.02, 0.40, 0.02, 0.01),
    c("TD", "Chad", 0.02, 0.40, 0.02, 0.01),
    c("SD", "Sudan", 0.03, 0.40, 0.03, 0.02),
    c("LY", "Libya", 0.03, 0.40, 0.03, 0.02),
    c("MR", "Mauritania", 0.02, 0.40, 0.02, 0.01),
    c("GA", "Gabon", 0.02, 0.42, 0.02, 0.01),
    c("CG", "Congo", 0.02, 0.40, 0.02, 0.01),
    c("CD", "DR Congo", 0.02, 0.40, 0.02, 0.01),
    c("BJ", "Benin", 0.02, 0.40, 0.02, 0.01),
    c("TG", "Togo", 0.02, 0.40, 0.02, 0.01),
    c("GN", "Guinea", 0.02, 0.40, 0.02, 0.01),
    c("MG", "Madagascar", 0.02, 0.40, 0.02, 0.01),
    c("MU", "Mauritius", 0.03, 0.42, 0.03, 0.02),
    c("RE", "Reunion", 0.02, 0.40, 0.02, 0.01),
    c("SC", "Seychelles", 0.02, 0.42, 0.02, 0.01),
    c("GT", "Guatemala", 0.03, 0.40, 0.04, 0.02),
    c("HN", "Honduras", 0.03, 0.40, 0.04, 0.02),
    c("SV", "El Salvador", 0.03, 0.40, 0.04, 0.02),
    c("NI", "Nicaragua", 0.02, 0.40, 0.03, 0.01),
    c("BZ", "Belize", 0.02, 0.40, 0.02, 0.01),
    c("JM", "Jamaica", 0.03, 0.40, 0.03, 0.02),
    c("TT", "Trinidad", 0.03, 0.42, 0.03, 0.02),
    c("BB", "Barbados", 0.02, 0.42, 0.02, 0.01),
    c("BS", "Bahamas", 0.02, 0.42, 0.02, 0.01),
    c("HT", "Haiti", 0.02, 0.40, 0.02, 0.01),
    c("CU", "Cuba", 0.02, 0.40, 0.02, 0.01),
    c("GY", "Guyana", 0.02, 0.40, 0.02, 0.01),
    c("SR", "Suriname", 0.02, 0.40, 0.02, 0.01),
    c("FJ", "Fiji", 0.02, 0.40, 0.02, 0.01),
    c("PG", "Papua N.G.", 0.02, 0.40, 0.02, 0.01),
    c("NC", "New Caledonia", 0.02, 0.42, 0.02, 0.01),
    c("PF", "Fr. Polynesia", 0.02, 0.42, 0.02, 0.01),
    c("GU", "Guam", 0.02, 0.42, 0.02, 0.01),
    c("MO", "Macau", 0.03, 0.45, 0.03, 0.02),
    c("GL", "Greenland", 0.01, 0.40, 0.01, 0.01),
    c("FO", "Faroe Is.", 0.01, 0.40, 0.01, 0.01),
    c("AD", "Andorra", 0.01, 0.42, 0.01, 0.01),
    c("MC", "Monaco", 0.01, 0.42, 0.01, 0.01),
    c("LI", "Liechtenstein", 0.01, 0.42, 0.01, 0.01),
    c("SM", "San Marino", 0.01, 0.42, 0.01, 0.01),
    c("JE", "Jersey", 0.01, 0.42, 0.01, 0.01),
    c("GG", "Guernsey", 0.01, 0.42, 0.01, 0.01),
    c("IM", "Isle of Man", 0.01, 0.42, 0.01, 0.01),
    c("GI", "Gibraltar", 0.01, 0.42, 0.01, 0.01),
    c("AW", "Aruba", 0.01, 0.42, 0.01, 0.01),
    c("CW", "Curacao", 0.01, 0.42, 0.01, 0.01),
    c("KY", "Cayman Is.", 0.01, 0.42, 0.01, 0.01),
    c("BM", "Bermuda", 0.01, 0.42, 0.01, 0.01),
    c("VI", "U.S. Virgin Is.", 0.01, 0.42, 0.01, 0.01),
    c("PR", "Puerto Rico", 0.03, 0.42, 0.03, 0.02),
];

/// [`CODE_INDEX`] entry for a letter pair no country uses.
const NO_COUNTRY: u8 = u8::MAX;

/// The [`CODE_INDEX`] slot of a code made of two upper-case ASCII
/// letters; `None` for any other shape.
const fn code_slot(code: &str) -> Option<usize> {
    if let &[a @ b'A'..=b'Z', b @ b'A'..=b'Z'] = code.as_bytes() {
        Some((a - b'A') as usize * 26 + (b - b'A') as usize)
    } else {
        None
    }
}

/// `CODE_INDEX[code_slot(code)]` is the [`COUNTRIES`] index of `code`, or
/// [`NO_COUNTRY`]. Built at compile time from the table itself, so the
/// two cannot drift apart.
static CODE_INDEX: [u8; 26 * 26] = {
    assert!(COUNTRIES.len() < NO_COUNTRY as usize);
    let mut index = [NO_COUNTRY; 26 * 26];
    let mut i = 0;
    while i < COUNTRIES.len() {
        if let Some(slot) = code_slot(COUNTRIES[i].code) {
            index[slot] = i as u8;
        }
        i += 1;
    }
    index
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for info in COUNTRIES {
            assert!(seen.insert(info.code), "duplicate country {}", info.code);
        }
    }

    #[test]
    fn lookup_roundtrip() {
        for info in COUNTRIES {
            let cc = CountryCode::from_code(info.code).unwrap();
            assert_eq!(cc.code(), info.code);
            assert_eq!(cc.name(), info.name);
            assert_eq!(cc.info(), info);
        }
        assert_eq!(CountryCode::from_code("XX"), None);
    }

    #[test]
    fn table_lookup_agrees_with_the_linear_scan() {
        let scan = |code: &str| COUNTRIES.iter().position(|c| c.code == code);
        let mut probes: Vec<String> = (b'A'..=b'Z')
            .flat_map(|a| (b'A'..=b'Z').map(move |b| String::from_utf8(vec![a, b]).unwrap()))
            .collect();
        probes.extend(
            [
                "",
                "R",
                "ru",
                "Ru",
                "RUS",
                " RU",
                "RU ",
                "R\u{dc}",
                "\u{420}\u{423}",
                "1A",
            ]
            .map(str::to_owned),
        );
        for code in &probes {
            assert_eq!(
                CountryCode::from_code(code).map(CountryCode::index),
                scan(code),
                "{code:?}"
            );
        }
    }

    #[test]
    fn top_deployment_matches_fig_1a_order() {
        // The table stores *benign* deployment weights; Russia's is set
        // below China's because the planted compromised population adds
        // the difference back (see the RU entry comment). Fig 1a ordering
        // over the full inventory is asserted in the integration tests.
        let us = CountryCode::from_code("US").unwrap();
        let gb = CountryCode::from_code("GB").unwrap();
        let ru = CountryCode::from_code("RU").unwrap();
        assert!(us.info().deploy_weight > gb.info().deploy_weight);
        assert!(gb.info().deploy_weight > ru.info().deploy_weight);
    }

    #[test]
    fn fig_1a_top15_cumulates_to_about_69_percent() {
        let total: f64 = COUNTRIES.iter().map(|c| c.deploy_weight).sum();
        let mut weights: Vec<f64> = COUNTRIES.iter().map(|c| c.deploy_weight).collect();
        weights.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let top15: f64 = weights.iter().take(15).sum();
        let share = top15 / total;
        assert!((0.60..=0.75).contains(&share), "top-15 share {share}");
    }

    #[test]
    fn cps_heavier_countries_match_fig_1a() {
        for code in ["CN", "FR", "CA", "VN", "TW", "ES"] {
            let info = CountryCode::from_code(code).unwrap().info();
            assert!(info.cps_deploy_share > 0.5, "{code} should be CPS-heavy");
        }
        for code in ["US", "GB", "RU", "DE"] {
            let info = CountryCode::from_code(code).unwrap().info();
            assert!(
                info.cps_deploy_share < 0.5,
                "{code} should be consumer-heavy"
            );
        }
    }

    #[test]
    fn compromised_weights_follow_paper_ranking() {
        let w = |code: &str, f: fn(&CountryInfo) -> f64| {
            f(CountryCode::from_code(code).unwrap().info())
        };
        // §III-B1: Russia 32% > U.S. 9% > Indonesia/Thailand 4% consumer.
        assert!(w("RU", |i| i.consumer_comp_weight) > w("US", |i| i.consumer_comp_weight));
        assert!(w("US", |i| i.consumer_comp_weight) > w("ID", |i| i.consumer_comp_weight));
        // §III-B2: China 17% > Russia 14.8% > Korea 8.3% > U.S. 6.9% CPS.
        assert!(w("CN", |i| i.cps_comp_weight) > w("RU", |i| i.cps_comp_weight));
        assert!(w("RU", |i| i.cps_comp_weight) > w("KR", |i| i.cps_comp_weight));
        assert!(w("KR", |i| i.cps_comp_weight) > w("US", |i| i.cps_comp_weight));
    }

    #[test]
    fn table_is_large_enough_for_wide_spread() {
        assert!(
            CountryCode::count() >= 80,
            "need many countries, got {}",
            CountryCode::count()
        );
        assert_eq!(CountryCode::all().count(), CountryCode::count());
    }

    #[test]
    fn display_uses_paper_name() {
        let ru = CountryCode::from_code("RU").unwrap();
        assert_eq!(ru.to_string(), "Russian F.");
    }
}
