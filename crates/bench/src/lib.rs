//! # knet-bench — the figure and table regenerators
//!
//! Each `cargo bench` target rebuilds one of the paper's evaluation
//! artifacts on the simulated testbed and prints the measured series (text
//! table + CSV). All numbers are *virtual-time* measurements — deterministic
//! and reproducible. The gated benchmark is the separate `benchmark/`
//! package; the protocol rows (RPC echo, KV failover, loss sweep, incast,
//! striping) are pinned by tests under `tests/`.

/// Print a figure in both human and CSV form.
pub fn emit(fig: &knet::figures::Figure) {
    println!("{}", knet::report::render_figure(fig));
    println!("--- CSV ---\n{}", knet::report::render_csv(fig));
}
