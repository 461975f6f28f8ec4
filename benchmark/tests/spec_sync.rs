//! `BENCHMARK.json` at the repo root and `src/spec.rs` name the same
//! workloads and metrics, in the same order, with the same units,
//! directions and bounds; and the file keeps to the driver's limits.

use pf_benchmark::spec::{MetricSpec, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use serde::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    serde_json::parse_value(&text).expect("BENCHMARK.json is valid JSON")
}

fn entries<'a>(root: &'a Value, key: &str) -> &'a [Value] {
    match root.get(key) {
        Some(Value::Seq(items)) => items,
        other => panic!("{key} must be a list, found {other:?}"),
    }
}

fn keys(entry: &Value) -> Vec<&str> {
    match entry {
        Value::Map(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, found {other:?}"),
    }
}

fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} must be a string in {entry:?}"))
}

fn is_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

fn is_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

fn assert_metrics(listed: &[Value], table: &[MetricSpec], bounded: bool) {
    assert_eq!(listed.len(), table.len());
    for (entry, spec) in listed.iter().zip(table) {
        assert_eq!(text(entry, "name"), spec.name);
        assert_eq!(text(entry, "unit"), spec.unit, "{}", spec.name);
        assert_eq!(text(entry, "better"), spec.better.name(), "{}", spec.name);
        assert!(is_name(spec.name) && is_unit(spec.unit), "{}", spec.name);
        if bounded {
            assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
            let bound = entry.get("bound").and_then(Value::as_f64);
            assert_eq!(bound, spec.bound, "{}", spec.name);
            assert!(bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", spec.name);
        } else {
            assert_eq!(keys(entry), ["name", "unit", "better"]);
            assert_eq!(spec.bound, None, "{}", spec.name);
        }
    }
}

#[test]
fn benchmark_json_lists_exactly_the_spec() {
    let root = benchmark_json();
    assert_eq!(
        keys(&root),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let workloads = entries(&root, "workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, spec) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(keys(entry), ["name", "why"]);
        assert_eq!(text(entry, "name"), spec.name);
        assert_eq!(text(entry, "why"), spec.why);
        assert!(is_name(spec.name));
        assert!(
            spec.why.len() <= 200 && !spec.why.contains('\n'),
            "{}",
            spec.name
        );
    }

    assert_metrics(entries(&root, "end_to_end"), &END_TO_END, true);
    assert_metrics(entries(&root, "per_layer"), &PER_LAYER, false);
    assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    assert!(
        END_TO_END
            .iter()
            .any(|m| (m.name, m.unit, m.better.name()) == ("setup_s", "s", "lower")),
        "the contract requires setup_s"
    );
    let largest = END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(
        pf_benchmark::spec::metric("setup_s").unwrap().bound,
        Some(largest)
    );

    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "every name is used once");
}

#[test]
fn the_command_and_paths_stay_inside_the_benchmark() {
    let root = benchmark_json();
    let paths: Vec<&str> = entries(&root, "paths")
        .iter()
        .map(|p| p.as_str().expect("a path is a string"))
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = entries(&root, "command")
        .iter()
        .map(|p| p.as_str().expect("an argument is a string"))
        .collect();
    assert!(command.len() <= 32 && command.iter().all(|arg| arg.len() <= 200));
    assert_eq!(command[0], "cargo");
    assert!(command.contains(&"benchmark/Cargo.toml"));
    for arg in &command {
        assert!(!arg.starts_with('/') && !arg.contains(".."), "{arg}");
    }
    let seconds = root.get("run_seconds").and_then(Value::as_u64);
    assert_eq!(seconds, Some(RUN_SECONDS));
    assert!((1..=60).contains(&RUN_SECONDS));
}
