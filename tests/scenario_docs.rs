//! Keeps `docs/SCENARIOS.md` honest: every fenced TOML example on the page
//! must be a complete, loadable scenario that survives a serialization
//! round trip, and the page must mention every field the scenario parser
//! accepts. Also holds README's crate table to the workspace's members.

use photofourier::prelude::*;

fn scenarios_md() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/docs/SCENARIOS.md");
    std::fs::read_to_string(path).expect("docs/SCENARIOS.md exists")
}

/// Extracts the contents of every ```toml fenced block.
fn toml_blocks(text: &str) -> Vec<String> {
    let mut blocks = Vec::new();
    let mut current: Option<String> = None;
    for line in text.lines() {
        match &mut current {
            None if line.trim() == "```toml" => current = Some(String::new()),
            None => {}
            Some(block) => {
                if line.trim() == "```" {
                    blocks.push(current.take().unwrap());
                } else {
                    block.push_str(line);
                    block.push('\n');
                }
            }
        }
    }
    blocks
}

#[test]
fn every_documented_example_parses_and_round_trips() {
    let blocks = toml_blocks(&scenarios_md());
    assert!(
        blocks.len() >= 2,
        "SCENARIOS.md should document at least a single-point and a sweep example"
    );
    for (i, block) in blocks.iter().enumerate() {
        let scenario =
            Scenario::from_toml(block).unwrap_or_else(|e| panic!("example {i} rejected: {e}"));
        let back = Scenario::from_toml(&scenario.to_toml().unwrap()).unwrap();
        assert_eq!(back, scenario, "example {i} did not round-trip");
        // Sweep examples must also expand cleanly.
        let plan = SweepPlan::expand(&scenario).unwrap();
        assert!(!plan.points().is_empty(), "example {i}");
    }
}

#[test]
fn documented_sweep_example_expands_as_the_text_claims() {
    let blocks = toml_blocks(&scenarios_md());
    let sweep = blocks
        .iter()
        .map(|b| Scenario::from_toml(b).unwrap())
        .find(|s| s.sweep.is_some())
        .expect("SCENARIOS.md documents a sweep example");
    let plan = SweepPlan::expand(&sweep).unwrap();
    assert_eq!(plan.points().len(), 18, "3 backends x 2 depths x 3 widths");
    assert_eq!(plan.points()[0].id, "backend=digital,td=1,quant=0");
    assert_eq!(
        plan.points().last().unwrap().id,
        "backend=photofourier_cg,td=16,quant=8"
    );
}

#[test]
fn every_schema_field_is_documented() {
    let text = scenarios_md();
    // The complete flat field inventory of the scenario schema. Adding a
    // field to the parser without documenting it fails here.
    let fields = [
        // top level
        "name",
        "network",
        // [backend]
        "kind",
        "capacity",
        // [arch]
        "preset",
        "num_pfcus",
        "input_waveguides",
        "temporal_accumulation",
        "area_budget_mm2",
        // [pipeline]
        "temporal_depth",
        "psum_adc_bits",
        "pseudo_negative",
        "edge_handling",
        "weight_quant",
        "activation_quant",
        "bits",
        "enabled",
        // [functional]
        "input_channels",
        "input_size",
        "weight_seed",
        // [serving]
        "serving",
        "max_batch",
        "batch_timeout_us",
        "queue_depth",
        "workers",
        // [serving.router]
        "router",
        "replicas",
        "policy",
        "priority_classes",
        "models",
        "replica_cache",
        "shed_at",
        "shrink_at",
        // [faults]
        "faults",
        "seed",
        "replica",
        "windows",
        "from_seq",
        "until_seq",
        "every",
        "magnitude",
        // [sweep]
        "sweep",
        "arch_presets",
        "pfcu_counts",
        "networks",
        "backends",
        "temporal_depths",
        "quant_bits",
    ];
    for field in fields {
        assert!(text.contains(field), "SCENARIOS.md must document `{field}`");
    }
    // Enumerated values are part of the contract too.
    for value in [
        "digital",
        "jtc_ideal",
        "photofourier_cg",
        "PhotofourierCg",
        "PhotofourierNg",
        "BaselineSinglePfcu",
        "Wraparound",
        "ZeroPad",
        "round_robin",
        "least_loaded",
        "kernel_affinity",
    ] {
        assert!(text.contains(value), "SCENARIOS.md must document `{value}`");
    }
    // Every fault kind the `[[faults.windows]]` parser accepts.
    for kind in FAULT_KINDS {
        assert!(
            text.contains(kind),
            "SCENARIOS.md must document fault kind `{kind}`"
        );
    }
    for network in NETWORK_REGISTRY {
        assert!(
            text.contains(network),
            "SCENARIOS.md must list network `{network}`"
        );
    }
}

#[test]
fn readme_architecture_table_lists_exactly_the_workspace_crates() {
    let read = |file: &str| {
        std::fs::read_to_string(format!("{}/{file}", env!("CARGO_MANIFEST_DIR")))
            .unwrap_or_else(|e| panic!("{file}: {e}"))
    };
    let mut members: Vec<String> = read("Cargo.toml")
        .lines()
        .filter_map(|line| {
            let name = line.trim().strip_prefix("\"crates/")?;
            Some(name.trim_end_matches(',').trim_end_matches('"').to_string())
        })
        .collect();
    let readme = read("README.md");
    let map = readme
        .split("## Architecture map")
        .nth(1)
        .expect("README.md has an \"Architecture map\" section");
    let map = map.split("\n## ").next().unwrap();
    // Table rows name one crate each: | `pf-xyz` | role |
    let mut listed: Vec<String> = map
        .lines()
        .filter_map(|line| {
            let cell = line.strip_prefix("| `")?;
            Some(cell.split('`').next()?.to_string())
        })
        .filter(|name| name.starts_with("pf-"))
        .collect();
    members.sort();
    listed.sort();
    assert!(!members.is_empty(), "no crates/* members in Cargo.toml");
    assert_eq!(
        listed, members,
        "README's architecture table must list exactly the crates/* workspace members"
    );
}
