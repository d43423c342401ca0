//! The `n`-th roots of unity of one series length.
//!
//! Every coefficient construction of the spectral transformations reads
//! powers of `ω = e^{−j2π/n}`: the moving averages' closed forms and
//! rotation loops (paper Equation 11) read `ω^f` for the frequencies they
//! produce, and the closed form also `ω^{f·m mod n}`. A relation holds one
//! [`UnitRoots`] table for its series length as derived data, so a
//! statement resolves its transformation without a trigonometric call.
//!
//! Every entry is computed by exactly one expression, `e^{−j2πf/n}`,
//! whether it is read from a relation's table or computed on demand: an
//! action resolved over a table and one resolved from the series length
//! alone (`SeriesTransform::action`) are equal bit for bit.

use simq_dsp::complex::Complex;
use std::f64::consts::PI;
use std::fmt;

/// `e^{−j2πf/n}`: the expression every root of the table is computed by.
#[inline]
fn root(n: usize, f: usize) -> Complex {
    Complex::cis(-2.0 * PI * f as f64 / n as f64)
}

/// The roots `ω[f] = e^{−j2πf/n}`, `f = 0, …, n − 1`, of one series
/// length `n` — or, built by [`UnitRoots::on_demand`], no table at all,
/// each root computed as it is read. Either way [`UnitRoots::omega`]
/// returns the same bits.
#[derive(Clone)]
pub struct UnitRoots {
    n: usize,
    table: Vec<Complex>,
}

impl UnitRoots {
    /// The table of the `n` roots of a series of length `n`: `n`
    /// trigonometric evaluations, 16 bytes each.
    pub fn new(n: usize) -> Self {
        UnitRoots {
            n,
            table: (0..n).map(|f| root(n, f)).collect(),
        }
    }

    /// The roots of length `n` without a table: each read computes its
    /// root, so a caller that reads only a few pays for only those.
    pub fn on_demand(n: usize) -> Self {
        UnitRoots {
            n,
            table: Vec::new(),
        }
    }

    /// The series length `n` the roots belong to.
    pub fn series_len(&self) -> usize {
        self.n
    }

    /// The tabulated roots: all `n` of them, or none for
    /// [`UnitRoots::on_demand`].
    pub fn as_slice(&self) -> &[Complex] {
        &self.table
    }

    /// `ω^f = e^{−j2πf/n}` for any `f`: the table's entry when it holds
    /// one, else computed by the table's expression (the same bits).
    #[inline]
    pub fn omega(&self, f: usize) -> Complex {
        match self.table.get(f) {
            Some(&w) => w,
            None => root(self.n, f),
        }
    }
}

impl fmt::Debug for UnitRoots {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UnitRoots")
            .field("n", &self.n)
            .field("tabulated", &self.table.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(c: Complex) -> (u64, u64) {
        (c.re.to_bits(), c.im.to_bits())
    }

    #[test]
    fn the_table_and_on_demand_roots_are_one_expression() {
        for n in [1, 2, 7, 64, 127, 128, 1000] {
            let (table, lazy) = (UnitRoots::new(n), UnitRoots::on_demand(n));
            assert_eq!(table.as_slice().len(), n);
            assert!(lazy.as_slice().is_empty());
            for f in 0..2 * n + 3 {
                let want = bits(Complex::cis(-2.0 * PI * f as f64 / n as f64));
                assert_eq!(bits(table.omega(f)), want, "n={n} f={f}");
                assert_eq!(bits(lazy.omega(f)), want, "n={n} f={f}");
            }
        }
        assert!(UnitRoots::new(0).as_slice().is_empty());
    }
}
