//! CLI drift gate: `bulksc-analyze`'s real subcommand set (the match
//! arms in its `main`) must stay in lockstep with both the binary's own
//! `usage()` text and the README's `### bulksc-analyze` section. A
//! subcommand that exists but is undocumented — or documented but gone —
//! fails here, not in a user's terminal.

use std::path::Path;

fn repo_file(rel: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

/// The subcommand names, scraped from `main`'s match arms. Arms look
/// like `("report", paths) if ...` — tuple patterns whose first element
/// is a string literal; flag-parsing matches deeper in the file reuse
/// the same shape but always start with `--`, so they are filtered out.
fn subcommands(source: &str) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for line in source.lines() {
        let Some(rest) = line.trim_start().strip_prefix("(\"") else {
            continue;
        };
        let Some(end) = rest.find('"') else { continue };
        let name = &rest[..end];
        if !name.starts_with('-') && !names.iter().any(|n| n == name) {
            names.push(name.to_string());
        }
    }
    names
}

/// The body of `fn usage()` (the eprintln! block).
fn usage_text(source: &str) -> &str {
    let start = source
        .find("fn usage()")
        .expect("bulksc-analyze defines usage()");
    let tail = &source[start..];
    let end = tail.find("\n}").expect("usage() has a body");
    &tail[..end]
}

/// The README's analyze section: from its heading to the next `### `.
fn readme_analyze_section(readme: &str) -> &str {
    let start = readme
        .find("### bulksc-analyze")
        .expect("README documents bulksc-analyze");
    let tail = &readme[start + 4..]; // past this heading's own "### "
    let end = tail.find("\n### ").map(|i| i + 4).unwrap_or(tail.len());
    &readme[start..start + end]
}

#[test]
fn every_subcommand_is_documented_in_usage_and_readme() {
    let source = repo_file("crates/bench/src/bin/analyze.rs");
    let names = subcommands(&source);
    // The scraper found exactly the real arm list: a lost arm, a new one,
    // or a scraper that reads too little or too much fails here.
    assert_eq!(
        names,
        [
            "report",
            "timeline",
            "diff",
            "check",
            "query",
            "convert",
            "synth-trace",
            "metrics",
            "xray"
        ],
        "bulksc-analyze's subcommand set changed"
    );

    let usage = usage_text(&source);
    let readme = repo_file("README.md");
    let section = readme_analyze_section(&readme);
    for name in &names {
        assert!(
            usage.contains(&format!("bulksc-analyze {name} ")),
            "subcommand {name:?} missing from usage()"
        );
        assert!(
            section.contains(&format!("`{name}`")),
            "subcommand {name:?} missing from README's bulksc-analyze section"
        );
    }
}

/// The model-parametric oracle surface: `check` accepts `--model` in
/// both binaries' docs and the flag reaches the README. Scraped, not
/// hardcoded, so renaming the flag fails here before it fails a user.
#[test]
fn the_model_flag_is_pinned_everywhere() {
    let analyze = repo_file("crates/bench/src/bin/analyze.rs");
    assert!(
        usage_text(&analyze).contains("--model[=sc|tso]"),
        "bulksc-analyze usage() lost the --model flag"
    );
    let fuzz = repo_file("crates/bench/src/fuzz.rs");
    assert!(
        fuzz.contains("--model[=sc|tso]"),
        "bulksc-fuzz usage lost the --model flag"
    );
    let readme = repo_file("README.md");
    assert!(
        readme_analyze_section(&readme).contains("--model"),
        "README's bulksc-analyze section must document --model"
    );
    assert!(
        readme.contains("--model=tso"),
        "README must show the TSO oracle invocation"
    );
}

#[test]
fn usage_and_readme_advertise_no_phantom_subcommands() {
    let source = repo_file("crates/bench/src/bin/analyze.rs");
    let names = subcommands(&source);
    for line in usage_text(&source).lines() {
        let Some(after) = line.split("bulksc-analyze ").nth(1) else {
            continue;
        };
        let advertised = after.split_whitespace().next().unwrap_or("");
        assert!(
            names.iter().any(|n| n == advertised),
            "usage() advertises {advertised:?}, which has no match arm"
        );
    }
}
