//! Simulated time.
//!
//! The simulation clock counts **milliseconds since measurement start** in a
//! `u64`.  The paper reports its figures in hours and days; those are views
//! over the same clock ([`SimTime::as_hours`], [`SimTime::day_index`], …).

/// Milliseconds in one second.
pub const MS_PER_SEC: u64 = 1_000;
/// Milliseconds in one minute.
pub const MS_PER_MIN: u64 = 60 * MS_PER_SEC;
/// Milliseconds in one hour.
pub const MS_PER_HOUR: u64 = 60 * MS_PER_MIN;
/// Milliseconds in one day.
pub const MS_PER_DAY: u64 = 24 * MS_PER_HOUR;

/// An instant on the simulation clock (ms since measurement start).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The measurement start.
    pub const ZERO: SimTime = SimTime(0);

    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    pub fn from_secs(s: u64) -> Self {
        SimTime(s * MS_PER_SEC)
    }

    pub fn from_mins(m: u64) -> Self {
        SimTime(m * MS_PER_MIN)
    }

    pub fn from_hours(h: u64) -> Self {
        SimTime(h * MS_PER_HOUR)
    }

    pub fn from_days(d: u64) -> Self {
        SimTime(d * MS_PER_DAY)
    }

    pub fn as_millis(&self) -> u64 {
        self.0
    }

    pub fn as_secs(&self) -> f64 {
        self.0 as f64 / MS_PER_SEC as f64
    }

    pub fn as_hours(&self) -> f64 {
        self.0 as f64 / MS_PER_HOUR as f64
    }

    pub fn as_days(&self) -> f64 {
        self.0 as f64 / MS_PER_DAY as f64
    }

    /// Zero-based index of the measurement day containing this instant.
    pub fn day_index(&self) -> u64 {
        self.0 / MS_PER_DAY
    }

    /// Zero-based index of the measurement hour containing this instant.
    pub fn hour_index(&self) -> u64 {
        self.0 / MS_PER_HOUR
    }

    /// Hour of the (simulated local) day in `[0, 24)`, given a fixed offset
    /// between the simulation clock and local wall time.
    pub fn hour_of_day(&self, local_offset_hours: u64) -> u64 {
        (self.hour_index() + local_offset_hours) % 24
    }

    /// Saturating addition of a duration in milliseconds.
    pub fn plus_millis(&self, ms: u64) -> SimTime {
        SimTime(self.0.saturating_add(ms))
    }
}

impl std::fmt::Debug for SimTime {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(fm, "t+{:.3}s", self.as_secs())
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let d = self.0 / MS_PER_DAY;
        let h = (self.0 % MS_PER_DAY) / MS_PER_HOUR;
        let m = (self.0 % MS_PER_HOUR) / MS_PER_MIN;
        let s = (self.0 % MS_PER_MIN) / MS_PER_SEC;
        write!(fm, "d{d} {h:02}:{m:02}:{s:02}")
    }
}

impl std::ops::Add<u64> for SimTime {
    type Output = SimTime;
    /// `time + ms`.
    fn add(self, ms: u64) -> SimTime {
        self.plus_millis(ms)
    }
}

impl std::ops::Sub for SimTime {
    type Output = u64;
    /// Elapsed milliseconds between two instants (saturating).
    fn sub(self, rhs: SimTime) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_days(2).as_millis(), 2 * MS_PER_DAY);
        assert_eq!(SimTime::from_hours(3).as_hours(), 3.0);
        assert_eq!(SimTime::from_secs(90).as_secs(), 90.0);
        assert_eq!(SimTime::from_mins(2).as_millis(), 120_000);
    }

    #[test]
    fn day_and_hour_indexing() {
        let t = SimTime::from_hours(49); // day 2, 01:00
        assert_eq!(t.day_index(), 2);
        assert_eq!(t.hour_index(), 49);
        assert_eq!(t.hour_of_day(0), 1);
        assert_eq!(t.hour_of_day(23), 0);
    }

    #[test]
    fn display_formats() {
        let t = SimTime::from_days(1) + (2 * MS_PER_HOUR + 3 * MS_PER_MIN + 4 * MS_PER_SEC);
        assert_eq!(t.to_string(), "d1 02:03:04");
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(SimTime(5) - SimTime(9), 0);
        assert_eq!(SimTime(u64::MAX).plus_millis(10).0, u64::MAX);
    }
}
