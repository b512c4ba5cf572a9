//! Output checks: every check counts as attempted, and a failed one keeps
//! its message so the run can say what broke.
//!
//! Two kinds of check are kept apart. An *output* check asks whether the
//! program did what it was asked: every cell ran, every sample budget was
//! met, the flight window explains the max, passes agree exactly, and the
//! stored reference matches. A *band* check asks whether a simulated result
//! lands inside an acceptance band the repository claims (a figure's
//! verdict band, the modern matrix's 1 ms / 30 µs / 500 ns bounds). The
//! repository makes those claims for its committed configs, which seed 0
//! runs; on other seeds a band miss is a finding of the simulation, not a
//! wrong output. So band checks are tallied apart and count as failures
//! only once [`Checks::gate_bands`] folds them in.

#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Band checks made, and the messages of those that missed.
    pub bands: u64,
    pub band_misses: Vec<String>,
}

impl Checks {
    /// Count one output check; record `what()` when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Count one band check; record `what()` when the result misses.
    pub fn band_check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.bands += 1;
        if !ok {
            self.band_misses.push(what());
        }
    }

    /// Band check `lo <= value <= hi`, reported with the figure's name.
    pub fn band(&mut self, name: &str, value: f64, lo: f64, hi: f64, unit: &str) {
        self.band_check(value >= lo && value <= hi, || {
            format!("{name}: {value} {unit} outside the band [{lo}, {hi}] {unit}")
        });
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
        self.bands += other.bands;
        self.band_misses.extend(other.band_misses);
    }

    /// Count every band check as an output check, so a miss is a failure.
    pub fn gate_bands(&mut self) {
        self.attempted += std::mem::take(&mut self.bands);
        self.failures.append(&mut self.band_misses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_band_value_counts_as_a_failure_once_gated() {
        let mut c = Checks::default();
        c.band("fig7.max", 27.0, 15.0, 30.0, "us");
        c.band("fig7.max", 31.5, 15.0, 30.0, "us");
        assert_eq!((c.attempted, c.failed()), (0, 0));
        assert_eq!((c.bands, c.band_misses.len()), (2, 1));
        c.gate_bands();
        assert_eq!((c.attempted, c.failed()), (2, 1));
        assert_eq!((c.bands, c.band_misses.len()), (0, 0));
        assert!(c.failures[0].contains("31.5"));
    }

    #[test]
    fn absorb_keeps_the_two_kinds_apart() {
        let mut a = Checks::default();
        a.check(false, || "output".into());
        let mut b = Checks::default();
        b.band_check(false, || "band".into());
        a.absorb(b);
        assert_eq!(
            (a.attempted, a.failures.clone()),
            (1, vec!["output".into()])
        );
        assert_eq!((a.bands, a.band_misses.clone()), (1, vec!["band".into()]));
    }
}
