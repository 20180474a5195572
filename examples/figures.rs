//! Regenerate the paper's evaluation: every figure series (text table +
//! CSV) and table 1, as deterministic virtual-time measurements.
//!
//! ```console
//! $ cargo run --release --example figures              # everything
//! $ cargo run --release --example figures -- fig5 fig7 # by id prefix
//! $ cargo run --release --example figures -- table1 tcp
//! ```
//!
//! `tests/figures_shape.rs` asserts each series' shape; the ablations
//! beyond the figures are pinned by `tests/ablations.rs`.

use knet::figures::{self, Figure};
use knet::report::{render_csv, render_figure, render_table1};

/// A figure's id and the function that regenerates it.
type Regenerator = (&'static str, fn() -> Figure);

const FIGURES: [Regenerator; 12] = [
    ("fig1b", figures::fig1b),
    ("fig3b", figures::fig3b),
    ("fig4a", figures::fig4a),
    ("fig4b", figures::fig4b),
    ("fig5a", figures::fig5a),
    ("fig5b", figures::fig5b),
    ("fig6", figures::fig6),
    ("fig7a", || figures::fig7(true)),
    ("fig7b", || figures::fig7(false)),
    ("fig8a", figures::fig8a),
    ("fig8b", figures::fig8b),
    ("tcp", figures::tcp_baseline),
];

fn main() {
    let wanted: Vec<String> = std::env::args().skip(1).collect();
    let wants = |id: &str| wanted.is_empty() || wanted.iter().any(|w| id.starts_with(w.as_str()));
    for (id, regenerate) in FIGURES {
        if wants(id) {
            let fig = regenerate();
            println!("{}", render_figure(&fig));
            println!("--- CSV ---\n{}", render_csv(&fig));
        }
    }
    if wants("table1") {
        println!("{}", render_table1(&figures::table1()));
    }
}
