//! Extraction's output bits, pinned across versions.
//!
//! A database's checkpoint stores each row's extracted features, and its
//! write-ahead log stores only the raw series, so reopening it re-extracts
//! the log's tail with whatever build opens it. The rows of one relation
//! then come from two builds, and the index and every answer assume they
//! were extracted identically. The fixture `fixtures/extract_bits.txt`
//! holds every output bit (mean, standard deviation, index point, full
//! spectrum) of three seeded series, so any change to the normal form or
//! the FFT that moves one bit fails here rather than in a reopened
//! database.

use simq_series::FeatureScheme;

/// SplitMix64: a fixed, dependency-free stream, so the series never move.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

fn walk(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = SplitMix(seed);
    let mut x = 100.0;
    (0..n)
        .map(|_| {
            x += rng.unit();
            x
        })
        .collect()
}

fn noise(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = SplitMix(seed);
    (0..n).map(|_| 1e3 * rng.unit()).collect()
}

/// The fixture's text: per series a header, then one line of hex bits per
/// field and per spectrum coefficient.
fn render() -> String {
    let scheme = FeatureScheme::paper_default();
    let series = [
        ("walk seed=1", walk(1, 128)),
        ("walk seed=2", walk(2, 100)),
        ("noise seed=3", noise(3, 128)),
    ];
    let hex = |v: f64| format!("{:016x}", v.to_bits());
    let mut out = String::new();
    for (name, s) in series {
        let f = scheme.extract(&s).unwrap();
        out += &format!("series {name} n={}\n", s.len());
        out += &format!("mean {}\n", hex(f.mean));
        out += &format!("std_dev {}\n", hex(f.std_dev));
        let point: Vec<String> = f.point.iter().map(|&v| hex(v)).collect();
        out += &format!("point {}\n", point.join(" "));
        for (i, z) in f.spectrum.iter().enumerate() {
            out += &format!("spectrum[{i}] {} {}\n", hex(z.re), hex(z.im));
        }
    }
    out
}

#[test]
fn extraction_bits_match_the_fixture() {
    let want = include_str!("fixtures/extract_bits.txt");
    let got = render();
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "fixture line {}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "fixture length");
}
