//! Hour-granularity time intervals and the paper's analysis window.
//!
//! The UCSD telescope stores one flowtuple file per hour; the paper analyzes
//! **143 hourly intervals** spanning six days (April 12–17, 2017) after
//! dropping the incomplete April 18 data (only 15 of 24 hours were
//! available). Figures index intervals 1..=143.

use crate::NetError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Seconds per hour.
pub const SECS_PER_HOUR: u64 = 3600;
/// Hours per day.
pub const HOURS_PER_DAY: u32 = 24;

/// An hour counted from the Unix epoch (UTC).
///
/// # Example
///
/// ```
/// use iotscope_net::time::UnixHour;
/// let h = UnixHour::from_unix_secs(1_491_955_200); // 2017-04-12T00:00:00Z
/// assert_eq!(h.as_unix_secs(), 1_491_955_200);
/// assert_eq!(h.next(), UnixHour::new(h.get() + 1));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct UnixHour(u64);

impl UnixHour {
    /// Construct from an hour count since the Unix epoch.
    pub fn new(hours: u64) -> Self {
        UnixHour(hours)
    }

    /// Construct from a Unix timestamp in seconds (truncating to the hour).
    pub fn from_unix_secs(secs: u64) -> Self {
        UnixHour(secs / SECS_PER_HOUR)
    }

    /// The raw hour count.
    pub fn get(self) -> u64 {
        self.0
    }

    /// The timestamp of the start of this hour, in Unix seconds.
    pub fn as_unix_secs(self) -> u64 {
        self.0 * SECS_PER_HOUR
    }

    /// The following hour.
    pub fn next(self) -> UnixHour {
        UnixHour(self.0 + 1)
    }

    /// Add `n` hours.
    pub fn plus(self, n: u64) -> UnixHour {
        UnixHour(self.0 + n)
    }

    /// The proleptic-Gregorian civil date and hour (UTC):
    /// `(year, month, day, hour)`. Uses Hinnant's days-from-civil
    /// inversion, valid for the full representable range.
    pub fn civil(self) -> (i64, u32, u32, u32) {
        let days = (self.0 / 24) as i64;
        let hour = (self.0 % 24) as u32;
        // civil_from_days (days since 1970-01-01).
        let z = days + 719_468;
        let era = z.div_euclid(146_097);
        let doe = z.rem_euclid(146_097); // day of era [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365;
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
        let mp = (5 * doy + 2) / 153;
        let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
        let year = if m <= 2 { y + 1 } else { y };
        (year, m, d, hour)
    }

    /// A human-readable UTC label, e.g. `"2017-04-13 05:00Z"`.
    pub fn label(self) -> String {
        let (y, m, d, h) = self.civil();
        format!("{y:04}-{m:02}-{d:02} {h:02}:00Z")
    }
}

impl fmt::Display for UnixHour {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// A contiguous window of hourly intervals, the unit of an analysis run.
///
/// Interval indices used throughout the workspace (and in the paper's
/// figures) are **1-based**: interval 1 is the window's first hour.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), iotscope_net::NetError> {
/// use iotscope_net::time::AnalysisWindow;
///
/// let w = AnalysisWindow::paper();
/// assert_eq!(w.num_hours(), 143);
/// assert_eq!(w.num_days(), 6);
/// assert_eq!(w.day_of_interval(1)?, 0);   // April 12
/// assert_eq!(w.day_of_interval(143)?, 5); // April 17
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AnalysisWindow {
    start: UnixHour,
    num_hours: u32,
}

impl AnalysisWindow {
    /// 2017-04-12T00:00:00Z, the start of the paper's measurement window.
    pub const PAPER_START_SECS: u64 = 1_491_955_200;
    /// The paper's 143 analyzed hours.
    pub const PAPER_HOURS: u32 = 143;

    /// Create a window starting at `start` and covering `num_hours` hours.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidInterval`] if `num_hours == 0`.
    pub fn new(start: UnixHour, num_hours: u32) -> Result<Self, NetError> {
        if num_hours == 0 {
            return Err(NetError::InvalidInterval(
                "window must cover at least one hour".to_owned(),
            ));
        }
        Ok(AnalysisWindow { start, num_hours })
    }

    /// The paper's window: 143 hours starting April 12, 2017 (UTC).
    pub fn paper() -> Self {
        AnalysisWindow {
            start: UnixHour::from_unix_secs(Self::PAPER_START_SECS),
            num_hours: Self::PAPER_HOURS,
        }
    }

    /// A short window for tests and examples.
    pub fn short(num_hours: u32) -> Self {
        AnalysisWindow {
            start: UnixHour::from_unix_secs(Self::PAPER_START_SECS),
            num_hours: num_hours.max(1),
        }
    }

    /// First hour of the window.
    pub fn start(&self) -> UnixHour {
        self.start
    }

    /// Number of hourly intervals.
    pub fn num_hours(&self) -> u32 {
        self.num_hours
    }

    /// Number of (possibly partial) days covered.
    pub fn num_days(&self) -> u32 {
        self.num_hours.div_ceil(HOURS_PER_DAY)
    }

    /// The hour corresponding to 1-based interval index `interval`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidInterval`] if `interval` is 0 or beyond
    /// the window.
    pub fn hour_of_interval(&self, interval: u32) -> Result<UnixHour, NetError> {
        self.check_interval(interval)?;
        Ok(self.start.plus(u64::from(interval - 1)))
    }

    /// The 1-based interval index of `hour`, or `None` if outside the window.
    pub fn interval_of_hour(&self, hour: UnixHour) -> Option<u32> {
        if hour < self.start {
            return None;
        }
        let off = hour.get() - self.start.get();
        if off < u64::from(self.num_hours) {
            Some(off as u32 + 1)
        } else {
            None
        }
    }

    /// The 0-based day index (day 0 = first calendar day of the window) of a
    /// 1-based interval.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidInterval`] for out-of-window intervals.
    pub fn day_of_interval(&self, interval: u32) -> Result<u32, NetError> {
        self.check_interval(interval)?;
        Ok((interval - 1) / HOURS_PER_DAY)
    }

    /// Iterate over the window's hours in order.
    pub fn iter_hours(&self) -> impl Iterator<Item = UnixHour> + '_ {
        let start = self.start;
        (0..u64::from(self.num_hours)).map(move |i| start.plus(i))
    }

    /// Iterate over `(interval, hour)` pairs with 1-based interval indices.
    pub fn iter_intervals(&self) -> impl Iterator<Item = (u32, UnixHour)> + '_ {
        let start = self.start;
        (1..=self.num_hours).map(move |i| (i, start.plus(u64::from(i - 1))))
    }

    /// Number of hours that fall on day `day` (0-based); the trailing day
    /// may be partial.
    pub fn hours_in_day(&self, day: u32) -> u32 {
        let begin = day * HOURS_PER_DAY;
        if begin >= self.num_hours {
            0
        } else {
            (self.num_hours - begin).min(HOURS_PER_DAY)
        }
    }

    fn check_interval(&self, interval: u32) -> Result<(), NetError> {
        if interval == 0 || interval > self.num_hours {
            return Err(NetError::InvalidInterval(format!(
                "interval {interval} outside 1..={}",
                self.num_hours
            )));
        }
        Ok(())
    }
}

impl Default for AnalysisWindow {
    fn default() -> Self {
        AnalysisWindow::paper()
    }
}

impl fmt::Display for AnalysisWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} +{}h", self.start, self.num_hours)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unix_hour_conversions() {
        let h = UnixHour::from_unix_secs(AnalysisWindow::PAPER_START_SECS + 1800);
        assert_eq!(h.as_unix_secs(), AnalysisWindow::PAPER_START_SECS);
        assert_eq!(h.next().get(), h.get() + 1);
        assert_eq!(h.plus(24).get(), h.get() + 24);
    }

    #[test]
    fn civil_dates_known_values() {
        // Unix epoch.
        assert_eq!(UnixHour::new(0).civil(), (1970, 1, 1, 0));
        // The paper's window start: 2017-04-12T00:00:00Z.
        let start = UnixHour::from_unix_secs(AnalysisWindow::PAPER_START_SECS);
        assert_eq!(start.civil(), (2017, 4, 12, 0));
        assert_eq!(start.label(), "2017-04-12 00:00Z");
        // The window's last hour (interval 143) starts 2017-04-17T22:00Z.
        assert_eq!(start.plus(142).civil(), (2017, 4, 17, 22));
        // Leap-day handling: 2016-02-29 = 1456704000s.
        assert_eq!(
            UnixHour::from_unix_secs(1_456_704_000).civil(),
            (2016, 2, 29, 0)
        );
        // Year boundary: 2017-01-01 = 1483228800s.
        assert_eq!(
            UnixHour::from_unix_secs(1_483_228_800).civil(),
            (2017, 1, 1, 0)
        );
        assert_eq!(
            UnixHour::from_unix_secs(1_483_228_800 - 3600).civil(),
            (2016, 12, 31, 23)
        );
    }

    #[test]
    fn paper_window_shape() {
        let w = AnalysisWindow::paper();
        assert_eq!(w.num_hours(), 143);
        assert_eq!(w.num_days(), 6);
        assert_eq!(w.start().as_unix_secs(), 1_491_955_200);
    }

    #[test]
    fn zero_hour_window_rejected() {
        assert!(AnalysisWindow::new(UnixHour::new(0), 0).is_err());
        assert!(AnalysisWindow::new(UnixHour::new(0), 1).is_ok());
    }

    #[test]
    fn interval_hour_roundtrip() {
        let w = AnalysisWindow::paper();
        for i in [1u32, 2, 24, 25, 100, 143] {
            let h = w.hour_of_interval(i).unwrap();
            assert_eq!(w.interval_of_hour(h), Some(i));
        }
        assert!(w.hour_of_interval(0).is_err());
        assert!(w.hour_of_interval(144).is_err());
        assert_eq!(w.interval_of_hour(w.start().plus(143)), None);
        assert_eq!(w.interval_of_hour(UnixHour::new(0)), None);
    }

    #[test]
    fn day_mapping() {
        let w = AnalysisWindow::paper();
        assert_eq!(w.day_of_interval(1).unwrap(), 0);
        assert_eq!(w.day_of_interval(24).unwrap(), 0);
        assert_eq!(w.day_of_interval(25).unwrap(), 1);
        assert_eq!(w.day_of_interval(143).unwrap(), 5);
    }

    #[test]
    fn hours_in_day_trailing_partial() {
        let w = AnalysisWindow::paper();
        for d in 0..5 {
            assert_eq!(w.hours_in_day(d), 24);
        }
        assert_eq!(w.hours_in_day(5), 23);
        assert_eq!(w.hours_in_day(6), 0);
    }

    #[test]
    fn iterators_agree() {
        let w = AnalysisWindow::short(30);
        let hours: Vec<_> = w.iter_hours().collect();
        let pairs: Vec<_> = w.iter_intervals().collect();
        assert_eq!(hours.len(), 30);
        assert_eq!(pairs.len(), 30);
        assert_eq!(pairs[0].0, 1);
        assert_eq!(pairs[0].1, hours[0]);
        assert_eq!(pairs[29].0, 30);
        assert_eq!(pairs[29].1, hours[29]);
    }

    #[test]
    fn window_display() {
        let w = AnalysisWindow::short(5);
        let s = w.to_string();
        assert!(s.contains("+5h"), "{s}");
    }
}
