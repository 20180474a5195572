//! # knet-bench — the figure and table regenerators
//!
//! Each `cargo bench` target rebuilds one of the paper's evaluation
//! artifacts on the simulated testbed and prints the measured series (text
//! table + CSV). All numbers are *virtual-time* measurements — deterministic
//! and reproducible. `hotpath` and `rpc` additionally write
//! `BENCH_hotpath.json` and `BENCH_rpc.json`.

/// Print a figure in both human and CSV form.
pub fn emit(fig: &knet::figures::Figure) {
    println!("{}", knet::report::render_figure(fig));
    println!("--- CSV ---\n{}", knet::report::render_csv(fig));
}

/// A `u64` knob read from the environment (`default` when unset or not a
/// number).
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Write a bench's JSON report to the path named by the `out_var`
/// environment variable (default `default_name`) and echo it on stdout.
/// Relative paths resolve against the *workspace* root (cargo runs benches
/// with the package directory as cwd).
pub fn write_report(out_var: &str, default_name: &str, json: &str) {
    let out = std::env::var(out_var).unwrap_or_else(|_| default_name.to_string());
    let out = if std::path::Path::new(&out).is_absolute() {
        std::path::PathBuf::from(out)
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(out)
    };
    std::fs::write(&out, json).expect("write benchmark json");
    println!("{json}");
    eprintln!("wrote {}", out.display());
}
