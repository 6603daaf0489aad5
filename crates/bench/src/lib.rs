//! # bench
//!
//! Experiment harnesses that regenerate every table and figure of the
//! paper's evaluation (§3, §6), plus the Criterion micro-benchmarks.
//!
//! Run `cargo run -p bench --release --bin experiments -- all` to
//! regenerate everything, or name a single experiment
//! (`fig2`, `fig3`, `fig4`, `fig5`, `fig6`, `fig11`, `fig12`, `fig13`,
//! `fig14`, `fig15`, `fig16`, `fig17`, `fig18`, `fig19`, `model-check`,
//! `ablations`, `setup`). Add `--quick` for laptop-scale runs (smaller
//! core counts / data volumes, same shapes); the default is the
//! paper-scale configuration.

pub mod figs;
pub mod util;

/// Experiment scale: `Full` replays the paper's configuration (up to
/// 13,056 simulated cores); `Quick` shrinks core counts and data volumes
/// for fast iteration while preserving every qualitative shape.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    Quick,
    Full,
}

impl Scale {
    /// Pick `q` in quick mode, `f` in full mode.
    pub fn pick<T>(self, q: T, f: T) -> T {
        match self {
            Scale::Quick => q,
            Scale::Full => f,
        }
    }
}
