//! Synthetic benchmark data à la Börzsönyi et al. [3] (§7.1 of the paper).
//!
//! Three attribute-correlation regimes:
//!
//! * **Independent** — every attribute is uniform in the value range;
//!   skylines of moderate size.
//! * **Correlated** — attributes of one record are close to each other, so a
//!   few records dominate almost everything; skylines are tiny (the paper
//!   observes ~16 skyline join tuples at d = 4).
//! * **Anti-correlated** — records lie near the anti-diagonal hyperplane
//!   (being good in one dimension implies being bad in another); a large
//!   fraction of the input is in the skyline, the worst case for skyline
//!   processing (75K+ skyline join tuples at d = 4 in the paper).
//!
//! Join selectivity `σ` is controlled via the join-key domain size `K`:
//! uniform keys on both sides give expected selectivity `1/K`, so the
//! generator uses `K = round(1/σ)`.

use crate::record::{JoinKey, Record};
use crate::table::Table;
use caqe_types::{fnv1a, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Attribute values lie in `[lo, hi]`; the paper's `[1, 100]`.
const VALUE_RANGE: (Value, Value) = (1.0, 100.0);

/// Attribute correlation regime of a generated table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Distribution {
    /// Uniform independent attributes.
    Independent,
    /// Attributes positively correlated within a record.
    Correlated,
    /// Attributes anti-correlated within a record (near-constant sum).
    Anticorrelated,
}

impl Distribution {
    /// All three regimes, in the order the paper's figures present them.
    pub const ALL: [Distribution; 3] = [
        Distribution::Correlated,
        Distribution::Independent,
        Distribution::Anticorrelated,
    ];

    /// Short lowercase label used by the experiment harness CLI.
    pub fn label(self) -> &'static str {
        match self {
            Distribution::Independent => "independent",
            Distribution::Correlated => "correlated",
            Distribution::Anticorrelated => "anticorrelated",
        }
    }

    /// Parses a CLI label (prefixes accepted: `ind`, `cor`, `anti`).
    pub fn parse(s: &str) -> Option<Distribution> {
        let s = s.to_ascii_lowercase();
        if s.starts_with("ind") {
            Some(Distribution::Independent)
        } else if s.starts_with("cor") {
            Some(Distribution::Correlated)
        } else if s.starts_with("anti") {
            Some(Distribution::Anticorrelated)
        } else {
            None
        }
    }
}

/// Configurable generator for one base table.
///
/// ```
/// use caqe_data::{Distribution, TableGenerator};
///
/// let table = TableGenerator::new(1_000, 3, Distribution::Anticorrelated)
///     .with_selectivities(&[0.01])   // join-key domain of 100 values
///     .with_seed(7)
///     .generate("R");
/// assert_eq!(table.len(), 1_000);
/// assert_eq!(table.dims(), 3);
/// assert!(table.key_domain(0).len() <= 100);
/// ```
#[derive(Debug, Clone)]
pub struct TableGenerator {
    /// Table cardinality `N`.
    pub n: usize,
    /// Number of preference attributes `d`.
    pub dims: usize,
    /// Attribute correlation regime.
    pub distribution: Distribution,
    /// Join-key domain size per join column (`K_c = round(1/σ_c)`).
    pub key_domains: Vec<u32>,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl TableGenerator {
    /// A generator of values in the paper's `[1, 100]`, by default over a
    /// single join column with selectivity `σ = 10⁻²` (domain size 100).
    pub fn new(n: usize, dims: usize, distribution: Distribution) -> Self {
        TableGenerator {
            n,
            dims,
            distribution,
            key_domains: vec![100],
            seed: 0xCA9E,
        }
    }

    /// Replaces the join-key domains so that join column `c` has selectivity
    /// `σ_c` (domain size `round(1/σ_c)`, at least 1).
    pub fn with_selectivities(mut self, sigmas: &[f64]) -> Self {
        self.key_domains = sigmas
            .iter()
            .map(|&s| {
                assert!(s > 0.0 && s <= 1.0, "selectivity must be in (0, 1]");
                ((1.0 / s).round() as u32).max(1)
            })
            .collect();
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the table.
    pub fn generate(&self, name: &str) -> Table {
        // Hashing the name in decorrelates the two tables of a join generated
        // from one seed.
        let mut rng = StdRng::seed_from_u64(self.seed ^ fnv1a(name.as_bytes()));
        let (lo, hi) = VALUE_RANGE;
        let span = hi - lo;
        let mut records = Vec::with_capacity(self.n);
        for id in 0..self.n {
            let unit = match self.distribution {
                Distribution::Independent => unit_independent(&mut rng, self.dims),
                Distribution::Correlated => unit_correlated(&mut rng, self.dims),
                Distribution::Anticorrelated => unit_anticorrelated(&mut rng, self.dims),
            };
            let vals: Vec<Value> = unit.into_iter().map(|u| lo + u * span).collect();
            let keys: Vec<JoinKey> = self
                .key_domains
                .iter()
                .map(|&k| rng.gen_range(0..k))
                .collect();
            records.push(Record::new(id as u64, vals, keys));
        }
        Table::new(name, self.dims, self.key_domains.len(), records)
    }
}

/// A standard-normal sample via Box–Muller (avoids a `rand_distr`
/// dependency).
fn normal(rng: &mut impl Rng) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::EPSILON {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

/// Rejection-samples `base + scale·N(0,1)` into the unit interval.
///
/// Clamping would pile mass onto *exactly* 0.0 and 1.0, creating tied
/// attribute values across records — a violation of the Distinct Value
/// Attributes assumption (DVA, [36]) that the paper's Theorem 1 relies on.
/// Rejection keeps the values continuous, so ties have probability zero.
fn jitter_into_unit(rng: &mut impl Rng, base: f64, scale: f64) -> f64 {
    for _ in 0..64 {
        let x = base + scale * normal(rng);
        if (0.0..=1.0).contains(&x) {
            return x;
        }
    }
    // Pathological base far outside [0,1]: fall back to uniform.
    rng.gen::<f64>()
}

/// Uniform independent point in the unit hypercube.
fn unit_independent(rng: &mut impl Rng, d: usize) -> Vec<f64> {
    (0..d).map(|_| rng.gen::<f64>()).collect()
}

/// Correlated point: a common base level per record plus small per-dimension
/// jitter, following the construction of Börzsönyi et al.
fn unit_correlated(rng: &mut impl Rng, d: usize) -> Vec<f64> {
    let base = rng.gen::<f64>();
    (0..d).map(|_| jitter_into_unit(rng, base, 0.05)).collect()
}

/// Anti-correlated point: start on the diagonal, then move mass between
/// random dimension pairs so the coordinate *sum* stays (approximately)
/// constant while individual coordinates spread out. Records end up near the
/// anti-diagonal hyperplane, the skyline worst case.
fn unit_anticorrelated(rng: &mut impl Rng, d: usize) -> Vec<f64> {
    let base = jitter_into_unit(rng, 0.5, 0.05);
    let mut x = vec![base; d];
    if d < 2 {
        return x;
    }
    for _ in 0..(3 * d) {
        let i = rng.gen_range(0..d);
        let mut j = rng.gen_range(0..d);
        while j == i {
            j = rng.gen_range(0..d);
        }
        // Transfer up to what keeps both coordinates inside [0, 1].
        let max_up = (1.0 - x[i]).min(x[j]);
        let delta = rng.gen::<f64>() * max_up;
        x[i] += delta;
        x[j] -= delta;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use caqe_types::dominates;

    fn skyline_size(t: &Table) -> usize {
        let recs = t.records();
        recs.iter()
            .filter(|a| !recs.iter().any(|b| dominates(&b.vals, &a.vals)))
            .count()
    }

    #[test]
    fn generated_tables_have_requested_shape() {
        for dist in Distribution::ALL {
            let t = TableGenerator::new(500, 3, dist).generate("R");
            assert_eq!(t.len(), 500);
            assert_eq!(t.dims(), 3);
            assert_eq!(t.join_cols(), 1);
        }
    }

    #[test]
    fn values_respect_range() {
        for dist in Distribution::ALL {
            let t = TableGenerator::new(1000, 4, dist).generate("R");
            for r in t.records() {
                for &v in &r.vals {
                    assert!((1.0..=100.0).contains(&v), "{dist:?}: value {v} escaped");
                }
            }
        }
    }

    #[test]
    fn determinism_per_seed() {
        let a = TableGenerator::new(100, 3, Distribution::Independent)
            .with_seed(42)
            .generate("R");
        let b = TableGenerator::new(100, 3, Distribution::Independent)
            .with_seed(42)
            .generate("R");
        let c = TableGenerator::new(100, 3, Distribution::Independent)
            .with_seed(43)
            .generate("R");
        assert_eq!(a.records(), b.records());
        assert_ne!(a.records(), c.records());
    }

    #[test]
    fn table_name_decorrelates_content() {
        let gen = TableGenerator::new(100, 3, Distribution::Independent);
        let r = gen.generate("R");
        let t = gen.generate("T");
        assert_ne!(r.records(), t.records());
    }

    #[test]
    fn skyline_size_ordering_across_distributions() {
        // The defining property of the three regimes (paper §7.1):
        // |SKY(correlated)| << |SKY(independent)| << |SKY(anticorrelated)|.
        let n = 2000;
        let sizes: Vec<usize> = [
            Distribution::Correlated,
            Distribution::Independent,
            Distribution::Anticorrelated,
        ]
        .iter()
        .map(|&d| skyline_size(&TableGenerator::new(n, 4, d).generate("R")))
        .collect();
        assert!(
            sizes[0] < sizes[1] && sizes[1] < sizes[2],
            "skyline sizes not ordered: {sizes:?}"
        );
        // Correlated skylines are tiny; anti-correlated are a large fraction.
        assert!(sizes[0] <= 30, "correlated skyline too big: {}", sizes[0]);
        assert!(
            sizes[2] >= n / 10,
            "anti-correlated skyline too small: {}",
            sizes[2]
        );
    }

    #[test]
    fn anticorrelated_sum_is_stable() {
        let t = TableGenerator::new(1000, 4, Distribution::Anticorrelated).generate("R");
        let sums: Vec<f64> = t.records().iter().map(|r| r.vals.iter().sum()).collect();
        let mean = sums.iter().sum::<f64>() / sums.len() as f64;
        let var = sums.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / sums.len() as f64;
        // Sum per record stays near 4 * (midpoint ≈ 50.5): low relative variance.
        assert!((mean - 202.0).abs() < 20.0, "mean sum {mean}");
        assert!(var.sqrt() < 30.0, "sum stddev too large: {}", var.sqrt());
    }

    #[test]
    fn correlated_dims_track_each_other() {
        let t = TableGenerator::new(2000, 2, Distribution::Correlated).generate("R");
        // Pearson correlation between d1 and d2 should be strongly positive.
        let xs: Vec<f64> = t.records().iter().map(|r| r.vals[0]).collect();
        let ys: Vec<f64> = t.records().iter().map(|r| r.vals[1]).collect();
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let cov = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (x - mx) * (y - my))
            .sum::<f64>();
        let vx = xs.iter().map(|x| (x - mx) * (x - mx)).sum::<f64>();
        let vy = ys.iter().map(|y| (y - my) * (y - my)).sum::<f64>();
        let r = cov / (vx.sqrt() * vy.sqrt());
        assert!(r > 0.9, "correlation too weak: {r}");
    }

    #[test]
    fn no_tied_attribute_values_dva() {
        // DVA: no two records share an exact value on any dimension. The
        // clamp-free generators make ties measure-zero; this guards against
        // reintroducing boundary pile-up.
        for dist in Distribution::ALL {
            let t = TableGenerator::new(3000, 3, dist).generate("R");
            for k in 0..3 {
                let mut vals: Vec<f64> = t.records().iter().map(|r| r.val(k)).collect();
                vals.sort_by(f64::total_cmp);
                let ties = vals.windows(2).filter(|w| w[0] == w[1]).count();
                assert_eq!(ties, 0, "{dist:?} dim {k} has {ties} tied values");
            }
        }
    }

    #[test]
    fn selectivity_controls_key_domain() {
        let t = TableGenerator::new(5000, 2, Distribution::Independent)
            .with_selectivities(&[0.1, 0.01])
            .generate("R");
        assert_eq!(t.join_cols(), 2);
        assert!(t.key_domain(0).len() <= 10);
        assert!(t.key_domain(1).len() <= 100);
        // With N >> K every key should actually appear.
        assert_eq!(t.key_domain(0).len(), 10);
    }

    #[test]
    fn empirical_join_selectivity_matches_sigma() {
        let sigma = 0.05;
        let r = TableGenerator::new(1000, 2, Distribution::Independent)
            .with_selectivities(&[sigma])
            .generate("R");
        let t = TableGenerator::new(1000, 2, Distribution::Independent)
            .with_selectivities(&[sigma])
            .generate("T");
        let matches: usize = r
            .records()
            .iter()
            .map(|a| t.records().iter().filter(|b| a.key(0) == b.key(0)).count())
            .sum();
        let observed = matches as f64 / (1000.0 * 1000.0);
        assert!(
            (observed - sigma).abs() < sigma * 0.25,
            "observed selectivity {observed} vs requested {sigma}"
        );
    }

    #[test]
    #[should_panic]
    fn zero_selectivity_rejected() {
        let _ = TableGenerator::new(10, 2, Distribution::Independent).with_selectivities(&[0.0]);
    }

    #[test]
    fn distribution_labels_roundtrip() {
        for d in Distribution::ALL {
            assert_eq!(Distribution::parse(d.label()), Some(d));
        }
        assert_eq!(
            Distribution::parse("anti"),
            Some(Distribution::Anticorrelated)
        );
        assert_eq!(Distribution::parse("bogus"), None);
    }
}
