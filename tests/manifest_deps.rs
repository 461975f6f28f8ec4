//! Holds every package manifest to its sources: a `[dependencies]` or
//! `[dev-dependencies]` entry of the root `Cargo.toml` or of a
//! `crates/*/Cargo.toml` must be named (hyphens as underscores) somewhere
//! in that package's `src/`, `tests/`, `benches/` or `examples/`. An edge
//! nothing names only lengthens the build and hides the real graph. Every
//! `[workspace.dependencies]` entry of the root manifest must in turn be
//! inherited by some package, so a deleted or folded crate leaves no line
//! behind.

use std::path::{Path, PathBuf};

/// Names listed under the given manifest sections, with hyphens turned to
/// underscores.
fn keys_in(manifest: &str, sections: &[&str]) -> Vec<String> {
    let mut names = Vec::new();
    let mut in_deps = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = sections.contains(&line);
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let key = line.split(['=', '.']).next().unwrap().trim();
        names.push(key.replace('-', "_"));
    }
    names
}

/// The sections whose entries a package's sources must name.
const DECLARED: &[&str] = &["[dependencies]", "[dev-dependencies]"];

/// Appends the text of every `.rs` file under `dir` (recursively).
fn read_sources(dir: &Path, text: &mut String) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.unwrap().path();
        if path.is_dir() {
            read_sources(&path, text);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            text.push_str(&std::fs::read_to_string(&path).unwrap());
            text.push('\n');
        }
    }
}

/// Whether `ident` occurs in `text` as a whole identifier.
fn names(text: &str, ident: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(ident).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = text[at + ident.len()..].chars().next();
        !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
    })
}

#[test]
fn every_declared_dependency_is_named_by_its_package() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut packages = vec![root.clone()];
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let dir = entry.unwrap().path();
        if dir.join("Cargo.toml").is_file() {
            packages.push(dir);
        }
    }
    packages.sort();

    let mut unused = Vec::new();
    for package in &packages {
        let manifest = std::fs::read_to_string(package.join("Cargo.toml")).unwrap();
        let mut sources = String::new();
        for dir in ["src", "tests", "benches", "examples"] {
            read_sources(&package.join(dir), &mut sources);
        }
        for dep in keys_in(&manifest, DECLARED) {
            if !names(&sources, &dep) {
                let package = package.strip_prefix(&root).unwrap().display().to_string();
                unused.push(format!(
                    "{} -> {dep}",
                    if package.is_empty() { "." } else { &package }
                ));
            }
        }
    }
    assert!(packages.len() > 1, "no crates/* packages found");
    assert!(
        unused.is_empty(),
        "dependencies no source of their package names: {unused:?}"
    );
}

#[test]
fn every_workspace_dependency_is_inherited_by_a_package() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root_manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
    let mut inherited = keys_in(&root_manifest, DECLARED);
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let manifest = entry.unwrap().path().join("Cargo.toml");
        if let Ok(manifest) = std::fs::read_to_string(manifest) {
            inherited.extend(keys_in(&manifest, DECLARED));
        }
    }
    let workspace = keys_in(&root_manifest, &["[workspace.dependencies]"]);
    assert!(!workspace.is_empty(), "no [workspace.dependencies] found");
    let stale: Vec<_> = workspace
        .iter()
        .filter(|dep| !inherited.contains(dep))
        .collect();
    assert!(
        stale.is_empty(),
        "[workspace.dependencies] entries no package inherits: {stale:?}"
    );
}
