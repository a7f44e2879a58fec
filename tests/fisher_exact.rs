//! An independent check of Fisher's exact test (§2.2 of the paper).
//!
//! For every 2×2 table with `n ≤ 60` records the reference computes the
//! left, right and two-sided tails as exact rationals over `C(n, n_c)`:
//! the numerator of outcome `k` is `C(supp_x, k) · C(n − supp_x, n_c − k)`,
//! an integer, so tails are integer sums and "as or more extreme" is an
//! exact integer comparison.  It shares no code with the engine — no log
//! factorials, no floating-point tie tolerance, no sort — so a bug in
//! `FisherTest` or the static p-value tables cannot hide behind the same
//! bug in the reference.

use sigrule_repro::stats::{FisherTest, RuleCounts, Tail};

const N_MAX: usize = 60;

/// Pascal's triangle up to `N_MAX`, in exact integers.  `C(60, 30)` is below
/// 2^57, so a product of two entries stays below 2^115.
fn binomials() -> Vec<Vec<u128>> {
    let mut rows: Vec<Vec<u128>> = Vec::with_capacity(N_MAX + 1);
    for n in 0..=N_MAX {
        let mut row = vec![1u128; n + 1];
        for k in 1..n {
            row[k] = rows[n - 1][k - 1] + rows[n - 1][k];
        }
        rows.push(row);
    }
    rows
}

/// The exact tails of one table, as numerators over `den`.
struct ExactTails {
    left: u128,
    right: u128,
    two_sided: u128,
    den: u128,
}

/// Exact tails for `supp_r` under the margins `(n, n_c, supp_x)`.
fn exact_tails(c: &[Vec<u128>], n: usize, n_c: usize, supp_x: usize, supp_r: usize) -> ExactTails {
    let lo = (n_c + supp_x).saturating_sub(n);
    let hi = n_c.min(supp_x);
    let num = |k: usize| c[supp_x][k] * c[n - supp_x][n_c - k];
    let observed = num(supp_r);
    let (mut left, mut right, mut two_sided, mut den) = (0u128, 0u128, 0u128, 0u128);
    for k in lo..=hi {
        let m = num(k);
        den += m;
        if k <= supp_r {
            left += m;
        }
        if k >= supp_r {
            right += m;
        }
        if m <= observed {
            two_sided += m;
        }
    }
    assert_eq!(
        den, c[n][n_c],
        "Vandermonde: the numerators sum to C(n, n_c)"
    );
    ExactTails {
        left,
        right,
        two_sided,
        den,
    }
}

fn ratio(num: u128, den: u128) -> f64 {
    num as f64 / den as f64
}

fn assert_close(got: f64, want: f64, context: &str) {
    let scale = want.abs().max(f64::MIN_POSITIVE);
    assert!(
        (got - want).abs() <= 1e-9 * scale,
        "{context}: engine {got:e} vs exact {want:e} (relative error {:e})",
        (got - want).abs() / scale
    );
}

/// Every table with `n ≤ 60`, every tail, through `FisherTest::p_value`.
#[test]
fn p_value_matches_exact_rationals_for_every_table_up_to_60() {
    let c = binomials();
    let test = FisherTest::new(N_MAX);
    let mut tables = 0usize;
    for n in 1..=N_MAX {
        for n_c in 0..=n {
            for supp_x in 0..=n {
                let lo = (n_c + supp_x).saturating_sub(n);
                for supp_r in lo..=n_c.min(supp_x) {
                    let counts = RuleCounts::new(n, n_c, supp_x, supp_r).expect("valid table");
                    let exact = exact_tails(&c, n, n_c, supp_x, supp_r);
                    let context = format!("n={n} n_c={n_c} supp_x={supp_x} supp_r={supp_r}");
                    for (tail, num) in [
                        (Tail::Left, exact.left),
                        (Tail::Right, exact.right),
                        (Tail::TwoSided, exact.two_sided),
                    ] {
                        assert_close(
                            test.p_value(&counts, tail),
                            ratio(num, exact.den),
                            &format!("{context} {tail:?}"),
                        );
                    }
                    tables += 1;
                }
            }
        }
    }
    assert_eq!(tables, 635_375, "every table with n ≤ 60");
}

/// The static-table path (`all_p_values`, what the p-value buffers hold)
/// agrees with the exact two-sided tail at every support value.
#[test]
fn static_table_matches_exact_two_sided_tails() {
    let c = binomials();
    let test = FisherTest::new(N_MAX);
    for n in 1..=N_MAX {
        for n_c in 0..=n {
            for supp_x in 0..=n {
                let lo = (n_c + supp_x).saturating_sub(n);
                let table = test.all_p_values(n, n_c, supp_x).expect("valid margins");
                assert_eq!(table.len(), n_c.min(supp_x) - lo + 1);
                for (i, &got) in table.iter().enumerate() {
                    let exact = exact_tails(&c, n, n_c, supp_x, lo + i);
                    assert_close(
                        got,
                        ratio(exact.two_sided, exact.den),
                        &format!("n={n} n_c={n_c} supp_x={supp_x} supp_r={}", lo + i),
                    );
                }
            }
        }
    }
}

/// Symmetric margins (`n_c = n/2`, the paper's synthetic setting) make
/// the pmf symmetric, so every outcome but the mode has an exact twin; the
/// two-sided tail must count both, on both paths.
#[test]
fn symmetric_margins_count_exact_ties_on_both_sides() {
    let c = binomials();
    let test = FisherTest::new(N_MAX);
    let mut ties = 0usize;
    for n in (2..=N_MAX).step_by(2) {
        let n_c = n / 2;
        for supp_x in 1..n {
            let lo = (n_c + supp_x).saturating_sub(n);
            let hi = n_c.min(supp_x);
            let table = test.all_p_values(n, n_c, supp_x).expect("valid margins");
            for supp_r in lo..=hi {
                let twin = lo + hi - supp_r;
                let exact = exact_tails(&c, n, n_c, supp_x, supp_r);
                let num = |k: usize| c[supp_x][k] * c[n - supp_x][n_c - k];
                assert_eq!(num(supp_r), num(twin), "symmetric margins mirror the pmf");
                if twin != supp_r {
                    ties += 1;
                    // The twin's mass is inside the two-sided tail.
                    assert!(exact.two_sided >= num(supp_r) + num(twin));
                }
                let want = ratio(exact.two_sided, exact.den);
                let counts = RuleCounts::new(n, n_c, supp_x, supp_r).expect("valid table");
                let context = format!("n={n} supp_x={supp_x} supp_r={supp_r}");
                assert_close(test.p_value(&counts, Tail::TwoSided), want, &context);
                assert_close(table[supp_r - lo], want, &context);
                assert_eq!(
                    table[supp_r - lo].to_bits(),
                    table[twin - lo].to_bits(),
                    "{context}: twins share one p-value"
                );
            }
        }
    }
    assert!(ties > 1_000, "only {ties} tied outcomes checked");
}
