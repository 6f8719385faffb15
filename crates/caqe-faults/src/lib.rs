//! Deterministic fault injection for the CAQE engine (DESIGN.md §13).
//!
//! A [`FaultPlan`] is a pure decision function: every injection verdict is
//! a stateless hash of `(seed, injection point, group, region, attempt)`,
//! never of RNG state, thread identity or wall time. Two consequences:
//!
//! * **Run invariance** — the same plan fires the same faults at the same
//!   virtual-clock points on every run, so the chaos suite can assert
//!   byte-identical traces.
//! * **Replayability** — a failure observed under `--faults <spec>` is
//!   reproduced exactly by re-running with the same spec.
//!
//! The plan covers the four fault classes of the chaos harness:
//! region cost spikes, estimator perturbation, panics inside region
//! processing units, and input corruption at ingestion (NaN/±Inf values
//! and duplicate record ids). A plan with every rate at zero
//! ([`FaultPlan::none`]) is inert: every hook in the engine is a strict
//! no-op, preserving the committed golden trace byte-for-byte.

// Library code must degrade, not abort (DESIGN.md §13).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use caqe_data::{Record, Table};
use caqe_types::EngineError;

/// Domain tags separating the injection points in hash space, so e.g. a
/// panic verdict for region 3 is independent of its cost-spike verdict.
const DOMAIN_PANIC: u64 = 0x50414e49; // "PANI"
const DOMAIN_SPIKE: u64 = 0x5350494b; // "SPIK"
const DOMAIN_EST: u64 = 0x45535449; // "ESTI"
const DOMAIN_CORRUPT: u64 = 0x434f5252; // "CORR"
const DOMAIN_ADMIT: u64 = 0x41444d54; // "ADMT"

/// Panic payload used for injected region panics. Carrying a dedicated
/// type lets the engine's `catch_unwind` recovery (and the chaos suite's
/// panic hook) distinguish injected faults from genuine bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedPanic {
    /// Join-group index the fault fired in.
    pub group: u32,
    /// Region identifier within the group.
    pub region: u32,
    /// 1-based processing attempt that was killed.
    pub attempt: u32,
}

/// Whether a panic payload is an [`InjectedPanic`] from a chaos plan.
///
/// The predicate the silencer filters on, exported so drivers with their
/// own panic-logging hooks (e.g. the `caqe-serve` wall-clock driver) can
/// apply the same classification without re-implementing the downcast.
pub fn is_injected_panic(payload: &dyn std::any::Any) -> bool {
    payload.downcast_ref::<InjectedPanic>().is_some()
}

/// Installs a process-wide panic hook that suppresses the default panic
/// banner for *injected* panics only — genuine panics still print.
///
/// The engine catches every [`InjectedPanic`] with `catch_unwind`, so
/// without this hook a chaos run sprays panic messages over its report even
/// though nothing actually failed. Idempotent; safe to call from every
/// driver and test that enables a fault plan.
///
/// **Composability**: the silencer *chains* — it wraps whatever hook is
/// installed at the moment of its (single effective) installation and
/// forwards every genuine panic to it, and hooks installed *afterwards*
/// (a server's own panic logger, say) wrap the silencer in turn and keep
/// working. For a reversible installation use
/// [`scoped_silence_injected_panics`], which restores the previous hook's
/// behaviour when the guard drops.
pub fn silence_injected_panics() {
    use std::sync::atomic::{AtomicBool, Ordering};
    static INSTALLED: AtomicBool = AtomicBool::new(false);
    if INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !is_injected_panic(info.payload()) {
            previous(info);
        }
    }));
}

/// Scope guard for a reversible panic-hook installation; created by
/// [`scoped_silence_injected_panics`]. Dropping the guard restores the
/// behaviour of the hook that was installed when the guard was created.
///
/// Guards should be dropped in reverse creation order (LIFO). The restore
/// is *behavioural*: the previous hook is re-wrapped rather than moved
/// back, so dropping out of order composes instead of panicking — the
/// hooks installed in between simply stay chained.
#[must_use = "dropping the guard immediately restores the previous hook"]
pub struct PanicHookGuard {
    restore: Option<Box<dyn FnOnce() + Send>>,
}

impl std::fmt::Debug for PanicHookGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PanicHookGuard")
            .field("armed", &self.restore.is_some())
            .finish()
    }
}

impl Drop for PanicHookGuard {
    fn drop(&mut self) {
        if let Some(restore) = self.restore.take() {
            restore();
        }
    }
}

/// Installs the injected-panic silencer *reversibly*: genuine panics are
/// forwarded to the hook that was current at call time, and dropping the
/// returned guard reinstates that hook's behaviour. This is what lets the
/// serving driver's panic logging and the chaos suite's silencing coexist
/// in either installation order.
pub fn scoped_silence_injected_panics() -> PanicHookGuard {
    use std::sync::Arc;
    let previous = Arc::new(std::panic::take_hook());
    let chained = Arc::clone(&previous);
    std::panic::set_hook(Box::new(move |info| {
        if !is_injected_panic(info.payload()) {
            chained(info);
        }
    }));
    PanicHookGuard {
        restore: Some(Box::new(move || {
            // Behavioural restore: drop whatever is currently installed
            // (ourselves, in LIFO discipline) and re-wrap the prior hook.
            drop(std::panic::take_hook());
            std::panic::set_hook(Box::new(move |info| previous(info)));
        })),
    }
}

/// Wall-clock retry/backoff policy for the serving driver (`caqe-serve`).
///
/// The engine's own retry budget and virtual-tick backoff (fixed constants
/// in its `recover` module) govern *deterministic* in-run recovery; this
/// policy governs the
/// wall-clock loop *around* engine runs: how many times a driver re-submits
/// an epoch after a transient failure and how long it sleeps in between.
/// Exponential with a cap, mirroring the tick-domain policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WallRetryPolicy {
    /// Attempts before the failure is declared terminal (≥ 1).
    pub max_attempts: u32,
    /// Sleep after the first failure, doubling per retry, in milliseconds.
    pub backoff_base_ms: u64,
    /// Ceiling on the exponential backoff, in milliseconds.
    pub backoff_cap_ms: u64,
}

impl Default for WallRetryPolicy {
    fn default() -> Self {
        WallRetryPolicy {
            max_attempts: 3,
            backoff_base_ms: 10,
            backoff_cap_ms: 250,
        }
    }
}

impl WallRetryPolicy {
    /// Backoff after the `attempt`-th failure (1-based):
    /// `base · 2^(attempt−1)` ms, capped.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(32);
        self.backoff_base_ms
            .saturating_mul(1u64 << shift)
            .min(self.backoff_cap_ms)
    }

    /// [`backoff_ms`](WallRetryPolicy::backoff_ms) as a `Duration`.
    pub fn backoff(&self, attempt: u32) -> std::time::Duration {
        std::time::Duration::from_millis(self.backoff_ms(attempt))
    }
}

/// A seeded, virtual-clock-keyed fault plan.
///
/// All rates are probabilities in `[0, 1]` evaluated by stateless hashing;
/// factors are deterministic multipliers applied when the matching rate
/// fires. `Copy + PartialEq` so configs embedding a plan stay `Copy` and
/// comparable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed feeding every injection decision.
    pub seed: u64,
    /// Probability a processed region's actual cost is spiked.
    pub spike_rate: f64,
    /// Multiplier applied to the region's elapsed ticks when a spike fires.
    pub spike_factor: f64,
    /// Probability a region's cost/cardinality estimate is perturbed.
    pub est_rate: f64,
    /// Perturbation magnitude: estimates are multiplied by the factor or
    /// its reciprocal (hash-chosen), modelling both over- and
    /// under-estimation.
    pub est_factor: f64,
    /// Probability one processing *attempt* of a region panics. Verdicts
    /// are per-attempt, so retries can succeed; a rate of 1 forces every
    /// attempt to fail and drives the region into quarantine.
    pub panic_rate: f64,
    /// Probability one ingested record is corrupted (NaN/±Inf value or
    /// duplicated id).
    pub corrupt_rate: f64,
    /// Probability one *admission attempt* of an online session event
    /// panics before any engine state is mutated (a clean retry), or the
    /// admitted query's cardinality estimate is perturbed. Verdicts are
    /// per-attempt, like region panics.
    pub admit_rate: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// SplitMix64 finalizer: a full-avalanche bijection on `u64`.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform `[0, 1)` from the top 53 bits of a hash.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultPlan {
    /// The inert plan: every hook is a strict no-op.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            spike_rate: 0.0,
            spike_factor: 8.0,
            est_rate: 0.0,
            est_factor: 4.0,
            panic_rate: 0.0,
            corrupt_rate: 0.0,
            admit_rate: 0.0,
        }
    }

    /// A plan with the given seed and no faults; combine with the
    /// `with_*` builders.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::none()
        }
    }

    /// Enables cost spikes at `rate` with the given tick multiplier.
    pub fn with_spikes(mut self, rate: f64, factor: f64) -> Self {
        self.spike_rate = rate;
        self.spike_factor = factor;
        self
    }

    /// Enables estimator perturbation at `rate` with the given magnitude.
    pub fn with_estimator_noise(mut self, rate: f64, factor: f64) -> Self {
        self.est_rate = rate;
        self.est_factor = factor;
        self
    }

    /// Enables per-attempt region panics at `rate`.
    pub fn with_panics(mut self, rate: f64) -> Self {
        self.panic_rate = rate;
        self
    }

    /// Enables per-record ingestion corruption at `rate`.
    pub fn with_corruption(mut self, rate: f64) -> Self {
        self.corrupt_rate = rate;
        self
    }

    /// Enables admission-time faults (online sessions) at `rate`.
    pub fn with_admission_faults(mut self, rate: f64) -> Self {
        self.admit_rate = rate;
        self
    }

    /// Whether any injection point can ever fire.
    pub fn is_active(&self) -> bool {
        self.spike_rate > 0.0
            || self.est_rate > 0.0
            || self.panic_rate > 0.0
            || self.corrupt_rate > 0.0
            || self.admit_rate > 0.0
    }

    /// The plan's decision hash: position-sensitive chaining of the seed,
    /// domain tag and site coordinates through the SplitMix64 finalizer.
    #[inline]
    fn hash(&self, domain: u64, a: u64, b: u64, c: u64) -> u64 {
        let mut h = mix(self.seed ^ 0x9e37_79b9_7f4a_7c15);
        for v in [domain, a, b, c] {
            h = mix(h ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        }
        h
    }

    #[inline]
    fn coin(h: u64, rate: f64) -> bool {
        if rate <= 0.0 {
            false
        } else if rate >= 1.0 {
            true
        } else {
            unit(h) < rate
        }
    }

    /// Whether processing attempt `attempt` (1-based) of `(group, region)`
    /// is killed by an injected panic.
    pub fn panics(&self, group: u32, region: u32, attempt: u32) -> bool {
        Self::coin(
            self.hash(DOMAIN_PANIC, group as u64, region as u64, attempt as u64),
            self.panic_rate,
        )
    }

    /// The cost-spike multiplier for `(group, region)`, if one fires.
    pub fn cost_spike(&self, group: u32, region: u32) -> Option<f64> {
        if Self::coin(
            self.hash(DOMAIN_SPIKE, group as u64, region as u64, 0),
            self.spike_rate,
        ) {
            Some(self.spike_factor)
        } else {
            None
        }
    }

    /// The estimator perturbation factor for `(group, region)`: `1.0` when
    /// no fault fires, otherwise the plan's factor or its reciprocal.
    pub fn estimator_factor(&self, group: u32, region: u32) -> f64 {
        let h = self.hash(DOMAIN_EST, group as u64, region as u64, 0);
        if Self::coin(h, self.est_rate) {
            if h & (1 << 9) == 0 {
                self.est_factor
            } else {
                1.0 / self.est_factor
            }
        } else {
            1.0
        }
    }

    /// Whether admission attempt `attempt` (1-based) of online session
    /// event `event` is killed by an injected panic. The engine checks this
    /// *before* mutating any state, so a failed admission retries cleanly.
    pub fn admit_panics(&self, event: u64, attempt: u32) -> bool {
        Self::coin(
            self.hash(DOMAIN_ADMIT, event, attempt as u64, 0),
            self.admit_rate,
        )
    }

    /// The cardinality-estimate perturbation for the query admitted by
    /// session event `event`: `1.0` when no fault fires, otherwise the
    /// plan's estimator factor or its reciprocal (hash-chosen). Keyed on a
    /// distinct coordinate from [`FaultPlan::admit_panics`] so the two
    /// verdicts are independent.
    pub fn admit_est_factor(&self, event: u64) -> f64 {
        let h = self.hash(DOMAIN_ADMIT, event, 0, 1);
        if Self::coin(h, self.admit_rate) {
            if h & (1 << 9) == 0 {
                self.est_factor
            } else {
                1.0 / self.est_factor
            }
        } else {
            1.0
        }
    }

    /// Applies ingestion corruption to a table, returning the corrupted
    /// copy. `salt` separates tables sharing a plan (hash the table name).
    ///
    /// Corruption kinds, hash-chosen per hit record: NaN, `+Inf` or `-Inf`
    /// written into one preference attribute, or the record's id replaced
    /// with the id of row 0 (a duplicate). The clean subset of records is
    /// left bit-identical.
    pub fn corrupt_table(&self, table: &Table) -> Table {
        if self.corrupt_rate <= 0.0 || table.is_empty() {
            return table.clone();
        }
        let salt = table.name().bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
        });
        let dims = table.dims();
        let records = table
            .records()
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let h = self.hash(DOMAIN_CORRUPT, salt, i as u64, 0);
                if !Self::coin(h, self.corrupt_rate) {
                    return r.clone();
                }
                let mut rec = r.clone();
                match (h >> 20) % 4 {
                    0 => rec.vals[((h >> 32) as usize) % dims] = f64::NAN,
                    1 => rec.vals[((h >> 32) as usize) % dims] = f64::INFINITY,
                    2 => rec.vals[((h >> 32) as usize) % dims] = f64::NEG_INFINITY,
                    _ => {
                        if i > 0 {
                            rec.id = table.record(0).id;
                        } else {
                            rec.vals[((h >> 32) as usize) % dims] = f64::NAN;
                        }
                    }
                }
                rec
            })
            .collect::<Vec<Record>>();
        Table::new(table.name(), dims, table.join_cols(), records)
    }

    /// Parses a `--faults` spec: comma-separated `key=value` pairs.
    ///
    /// * `seed=<u64>` — decision seed (default 0);
    /// * `spike=<rate>[x<factor>]` — cost spikes (factor default 8);
    /// * `est=<rate>[x<factor>]` — estimator noise (factor default 4);
    /// * `panic=<rate>` — per-attempt region panics;
    /// * `corrupt=<rate>` — per-record ingestion corruption.
    ///
    /// The empty string or `"none"` yields the inert plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, EngineError> {
        let mut plan = FaultPlan::none();
        let spec = spec.trim();
        if spec.is_empty() || spec == "none" {
            return Ok(plan);
        }
        for part in spec.split(',') {
            let part = part.trim();
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| EngineError::BadFaultSpec {
                    fragment: part.to_string(),
                    reason: "expected key=value".to_string(),
                })?;
            let bad = |reason: &str| EngineError::BadFaultSpec {
                fragment: part.to_string(),
                reason: reason.to_string(),
            };
            let rate_of = |s: &str| -> Result<f64, EngineError> {
                let r: f64 = s.parse().map_err(|_| bad("rate must be a number"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(bad("rate must be in [0, 1]"));
                }
                Ok(r)
            };
            let rate_factor = |s: &str, default: f64| -> Result<(f64, f64), EngineError> {
                match s.split_once('x') {
                    Some((r, f)) => {
                        let factor: f64 = f.parse().map_err(|_| bad("factor must be a number"))?;
                        if !(factor.is_finite() && factor > 0.0) {
                            return Err(bad("factor must be finite and positive"));
                        }
                        Ok((rate_of(r)?, factor))
                    }
                    None => Ok((rate_of(s)?, default)),
                }
            };
            match key {
                "seed" => {
                    plan.seed = value.parse().map_err(|_| bad("seed must be a u64"))?;
                }
                "spike" => {
                    (plan.spike_rate, plan.spike_factor) = rate_factor(value, 8.0)?;
                }
                "est" => {
                    (plan.est_rate, plan.est_factor) = rate_factor(value, 4.0)?;
                }
                "panic" => plan.panic_rate = rate_of(value)?,
                "corrupt" => plan.corrupt_rate = rate_of(value)?,
                "admit" => plan.admit_rate = rate_of(value)?,
                _ => return Err(bad("unknown key (seed|spike|est|panic|corrupt|admit)")),
            }
        }
        Ok(plan)
    }

    /// Renders the plan back into a canonical spec string accepted by
    /// [`FaultPlan::parse`]: `parse(to_spec(p)) == p` for every parsed
    /// plan. A factor is rendered whenever its rate is non-zero *or* it
    /// differs from the default — a zero-rate `est` factor still scales
    /// admission faults.
    pub fn to_spec(&self) -> String {
        let none = FaultPlan::none();
        if *self == none {
            return "none".to_string();
        }
        let mut parts = vec![format!("seed={}", self.seed)];
        if self.spike_rate > 0.0 || self.spike_factor != none.spike_factor {
            parts.push(format!("spike={}x{}", self.spike_rate, self.spike_factor));
        }
        if self.est_rate > 0.0 || self.est_factor != none.est_factor {
            parts.push(format!("est={}x{}", self.est_rate, self.est_factor));
        }
        if self.panic_rate > 0.0 {
            parts.push(format!("panic={}", self.panic_rate));
        }
        if self.corrupt_rate > 0.0 {
            parts.push(format!("corrupt={}", self.corrupt_rate));
        }
        if self.admit_rate > 0.0 {
            parts.push(format!("admit={}", self.admit_rate));
        }
        parts.join(",")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(n: usize) -> Table {
        let records = (0..n)
            .map(|i| Record::new(i as u64, vec![1.0 + i as f64, 2.0 + i as f64], vec![0]))
            .collect();
        Table::new("R", 2, 1, records)
    }

    #[test]
    fn inert_plan_never_fires() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        for g in 0..4 {
            for r in 0..64 {
                assert!(!plan.panics(g, r, 1));
                assert_eq!(plan.cost_spike(g, r), None);
                assert_eq!(plan.estimator_factor(g, r), 1.0);
            }
        }
        let t = table(16);
        let c = plan.corrupt_table(&t);
        assert_eq!(c.records(), t.records());
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::seeded(42).with_panics(0.5).with_spikes(0.5, 8.0);
        let b = FaultPlan::seeded(43).with_panics(0.5).with_spikes(0.5, 8.0);
        let verdicts_a: Vec<bool> = (0..256).map(|r| a.panics(0, r, 1)).collect();
        let verdicts_a2: Vec<bool> = (0..256).map(|r| a.panics(0, r, 1)).collect();
        let verdicts_b: Vec<bool> = (0..256).map(|r| b.panics(0, r, 1)).collect();
        assert_eq!(verdicts_a, verdicts_a2);
        assert_ne!(verdicts_a, verdicts_b);
        // Roughly half fire at rate 0.5 (loose bound: hash quality check).
        let hits = verdicts_a.iter().filter(|&&v| v).count();
        assert!((64..=192).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn rate_one_always_fires_and_attempts_are_independent() {
        let plan = FaultPlan::seeded(7).with_panics(1.0);
        assert!(plan.panics(0, 0, 1) && plan.panics(3, 9, 4));
        let flaky = FaultPlan::seeded(7).with_panics(0.5);
        let per_attempt: Vec<bool> = (1..=64).map(|k| flaky.panics(0, 0, k)).collect();
        assert!(per_attempt.iter().any(|&v| v));
        assert!(per_attempt.iter().any(|&v| !v));
    }

    #[test]
    fn estimator_noise_goes_both_ways() {
        let plan = FaultPlan::seeded(11).with_estimator_noise(1.0, 4.0);
        let factors: Vec<f64> = (0..64).map(|r| plan.estimator_factor(0, r)).collect();
        assert!(factors.contains(&4.0));
        assert!(factors.contains(&0.25));
    }

    #[test]
    fn corruption_is_deterministic_and_leaves_clean_rows_untouched() {
        // Bit-level record comparison: NaN != NaN under PartialEq, so the
        // determinism check must compare value bit patterns.
        fn bits(r: &Record) -> (u64, Vec<u64>, Vec<u32>) {
            (
                r.id,
                r.vals.iter().map(|v| v.to_bits()).collect(),
                r.keys.clone(),
            )
        }
        let plan = FaultPlan::seeded(5).with_corruption(0.3);
        let t = table(64);
        let c1 = plan.corrupt_table(&t);
        let c2 = plan.corrupt_table(&t);
        for (a, b) in c1.records().iter().zip(c2.records()) {
            assert_eq!(bits(a), bits(b));
        }
        let mut touched = 0;
        for (orig, cor) in t.records().iter().zip(c1.records()) {
            if bits(orig) == bits(cor) {
                continue;
            }
            touched += 1;
            let non_finite = cor.vals.iter().any(|v| !v.is_finite());
            let dup_id = cor.id != orig.id;
            assert!(non_finite || dup_id, "unexpected corruption shape: {cor:?}");
        }
        assert!(touched > 0, "rate 0.3 over 64 rows should hit something");
        assert!(touched < 64);
    }

    #[test]
    fn spec_parsing_round_trips() {
        let plan =
            FaultPlan::parse("seed=42,spike=0.2x8,est=0.3x4,panic=0.1,corrupt=0.05,admit=0.2")
                .expect("valid spec");
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.spike_rate, 0.2);
        assert_eq!(plan.spike_factor, 8.0);
        assert_eq!(plan.est_factor, 4.0);
        assert_eq!(plan.panic_rate, 0.1);
        assert_eq!(plan.admit_rate, 0.2);
        assert_eq!(FaultPlan::parse(&plan.to_spec()).expect("round trip"), plan);
        assert_eq!(FaultPlan::parse("").expect("empty"), FaultPlan::none());
        assert_eq!(FaultPlan::parse("none").expect("none"), FaultPlan::none());
        // Factor defaults apply when omitted.
        let d = FaultPlan::parse("spike=0.5").expect("default factor");
        assert_eq!(d.spike_factor, 8.0);
        // A zero-rate fault keeps its parsed factor through the round trip.
        for spec in ["spike=0x3", "seed=5,est=0x2", "est=0x2,admit=0.5"] {
            let plan = FaultPlan::parse(spec).expect("valid spec");
            assert_eq!(
                FaultPlan::parse(&plan.to_spec()).expect("round trip"),
                plan,
                "{spec} → {}",
                plan.to_spec()
            );
        }
    }

    #[test]
    fn admission_verdicts_are_deterministic_and_per_attempt() {
        let a = FaultPlan::seeded(7).with_admission_faults(0.5);
        let b = FaultPlan::seeded(7).with_admission_faults(0.5);
        let c = FaultPlan::seeded(8).with_admission_faults(0.5);
        let mut fired = 0;
        let mut diverged = false;
        let mut attempt_varies = false;
        for ev in 0..64u64 {
            assert_eq!(a.admit_panics(ev, 1), b.admit_panics(ev, 1));
            assert_eq!(a.admit_est_factor(ev), b.admit_est_factor(ev));
            if a.admit_panics(ev, 1) != c.admit_panics(ev, 1) {
                diverged = true;
            }
            if a.admit_panics(ev, 1) != a.admit_panics(ev, 2) {
                attempt_varies = true;
            }
            if a.admit_est_factor(ev) != 1.0 {
                fired += 1;
            }
        }
        assert!(diverged, "seed must matter");
        assert!(attempt_varies, "attempt number must matter (clean retries)");
        assert!(fired > 0 && fired < 64, "rate 0.5 should fire sometimes");
        // The inert plan never perturbs admissions.
        let none = FaultPlan::none();
        assert!(!none.admit_panics(3, 1));
        assert_eq!(none.admit_est_factor(3), 1.0);
    }

    #[test]
    fn bad_specs_are_typed_errors() {
        for bad in [
            "spike",
            "spike=nope",
            "spike=1.5",
            "spike=0.5x0",
            "panic=-0.1",
            "unknown=1",
            "seed=abc",
            "admit=2",
        ] {
            match FaultPlan::parse(bad) {
                Err(EngineError::BadFaultSpec { .. }) => {}
                other => panic!("{bad:?} should fail to parse, got {other:?}"),
            }
        }
    }
}
