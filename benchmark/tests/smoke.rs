//! Smoke of the whole benchmark at `--scale 1`: every workload runs, its
//! checks pass, and both result lines carry exactly the metrics
//! `BENCHMARK.json` promises; `list` and `BENCHMARK.json` name the same
//! things.

use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_knet-benchmark");

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(EXE)
        .args(args)
        .output()
        .expect("benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

fn manifest() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The value of `"key": "value"` members of `text`, in order.
fn strings_of(text: &str, key: &str) -> Vec<String> {
    let pat = format!("\"{key}\": \"");
    text.match_indices(&pat)
        .map(|(i, _)| {
            let rest = &text[i + pat.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

/// The text of the array member `key` of the manifest.
fn section<'a>(doc: &'a str, key: &str) -> &'a str {
    let start = doc
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("no {key}"));
    let len = doc[start..].find("\n  ]").expect("array closes");
    &doc[start..start + len]
}

/// `(name, unit, better)` triples of a manifest section.
fn metrics_of(doc: &str, key: &str) -> Vec<(String, String, String)> {
    let sec = section(doc, key);
    let (n, u, b) = (
        strings_of(sec, "name"),
        strings_of(sec, "unit"),
        strings_of(sec, "better"),
    );
    assert!(
        n.len() == u.len() && n.len() == b.len(),
        "{key}: ragged entries"
    );
    n.into_iter()
        .zip(u)
        .zip(b)
        .map(|((n, u), b)| (n, u, b))
        .collect()
}

#[test]
fn list_and_manifest_name_the_same_things() {
    let (ok, listing) = run(&["list"]);
    assert!(ok);
    let doc = manifest();
    let listed = |kind: &str| -> Vec<Vec<String>> {
        listing
            .lines()
            .filter(|l| l.starts_with(kind))
            .map(|l| l.split(' ').skip(1).map(str::to_string).collect())
            .collect()
    };

    let workloads = listed("workload ");
    assert_eq!(workloads.len(), 6);
    let names: Vec<String> = workloads.iter().map(|w| w[0].clone()).collect();
    assert_eq!(strings_of(section(&doc, "workloads"), "name"), names);
    let whys: Vec<String> = workloads.iter().map(|w| w[1..].join(" ")).collect();
    assert_eq!(strings_of(section(&doc, "workloads"), "why"), whys);

    let e2e = listed("e2e ");
    assert_eq!(e2e.len(), 9);
    let from_list: Vec<_> = e2e
        .iter()
        .map(|m| (m[0].clone(), m[1].clone(), m[2].clone()))
        .collect();
    assert_eq!(metrics_of(&doc, "end_to_end"), from_list);
    for m in &e2e {
        let bound = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m[0], m[1], m[2], m[3]
        );
        assert!(doc.contains(&bound), "BENCHMARK.json lacks {bound}");
    }

    let layer = listed("layer ");
    assert!(
        layer.len() >= 100 && layer.len() <= 128,
        "{} per-layer metrics",
        layer.len()
    );
    let from_list: Vec<_> = layer
        .iter()
        .map(|m| (m[0].clone(), m[1].clone(), m[2].clone()))
        .collect();
    assert_eq!(metrics_of(&doc, "per_layer"), from_list);
    for m in &layer {
        assert!(["C", "T", "M", "V"].contains(&m[3].as_str()), "{m:?}");
    }
    assert!(doc.contains("\"paths\": [\"benchmark\"]"));
}

#[test]
fn every_workload_passes_its_checks_at_scale_1() {
    let doc = manifest();
    let began = std::time::Instant::now();
    for workload in strings_of(section(&doc, "workloads"), "name") {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (ok, out) = run(&[
                "run",
                "--workload",
                &workload,
                "--seed",
                "7",
                "--scale",
                "1",
                "--trace",
                trace,
            ]);
            let line = out.lines().last().unwrap_or_default();
            assert!(ok, "{workload} --trace {trace} exited non-zero: {line}");
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{workload}: {line}"
            );
            assert!(
                line.contains("\"failed\": 0, \"metrics\": {"),
                "{workload}: {line}"
            );
            let promised = metrics_of(&doc, key);
            for (name, unit, _) in &promised {
                let member = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&member)
                    .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}"));
                let rest = &line[at + member.len()..];
                let (number, after) = rest.split_once(',').expect("unit follows the value");
                let value: f64 = number.parse().expect("a number");
                assert!(
                    value.is_finite() && value >= 0.0,
                    "{workload} {name} = {value}"
                );
                assert!(
                    after.starts_with(&format!(" \"unit\": \"{unit}\"}}")),
                    "{workload} {name}: unit"
                );
                if key == "end_to_end" {
                    assert!(value > 0.0, "{workload}: end-to-end metric {name} is 0");
                }
            }
            assert_eq!(
                line.matches("\"value\": ").count(),
                promised.len(),
                "{workload} --trace {trace}: extra metrics"
            );
        }
    }
    assert!(
        began.elapsed().as_secs() < 10,
        "the smoke took {:?}",
        began.elapsed()
    );
}

#[test]
fn a_second_seed_changes_the_inputs_and_bad_arguments_are_refused() {
    let metrics = |seed: &str| {
        let (ok, out) = run(&[
            "run",
            "--workload",
            "p2p_small",
            "--seed",
            seed,
            "--scale",
            "1",
        ]);
        assert!(ok);
        let line = out.lines().last().expect("a result line").to_string();
        let at = line.find("\"virt_op_p50_us\"").expect("virtual metrics");
        line[at..].to_string()
    };
    assert_eq!(
        metrics("7"),
        metrics("7"),
        "same seed, same virtual numbers"
    );
    assert_ne!(
        metrics("7"),
        metrics("8"),
        "the seed reaches the virtual clock"
    );
    for bad in [
        &["run", "--workload", "nonesuch"][..],
        &["run", "--seed", "x"],
        &["frobnicate"],
        &["run", "--scale", "0", "--workload", "p2p_small"],
    ] {
        let (ok, out) = run(bad);
        assert!(
            !ok && out.is_empty(),
            "{bad:?} must fail without a result line"
        );
    }
}
