//! Generated IR excerpts in the docs: the `--write` / `--check` driver
//! shared by the examples that produce them.
//!
//! Each excerpt is spliced between `<!-- generated:NAME -->` /
//! `<!-- /generated:NAME -->` markers inside a ```` ```text ```` fence, so a
//! walkthrough's IR can never silently drift from what the compiler
//! actually produces.

/// Runs an excerpt-generating example: with `--check DOC` exits 1 if any of
/// `blocks` differs from the doc's copy, with `--write DOC` splices them all
/// into the doc, and otherwise prints them. `example` names the example in
/// the regeneration hint.
pub fn run(example: &str, blocks: &[(&str, String)]) {
    let args: Vec<String> = std::env::args().collect();
    if let Some(path) = flag_value(&args, "--check") {
        let doc = read(&path);
        let drifted: Vec<String> = blocks
            .iter()
            .filter_map(|(name, text)| match extract_block(&doc, name) {
                Some(found) if found.trim_end() == text.trim_end() => None,
                Some(_) => Some(name.to_string()),
                None => Some(format!("{name} (markers missing)")),
            })
            .collect();
        if drifted.is_empty() {
            println!(
                "{path}: all {} generated IR excerpts are current",
                blocks.len()
            );
            return;
        }
        eprintln!(
            "{path}: generated IR excerpts have drifted from the compiler's output: {}",
            drifted.join(", ")
        );
        eprintln!("regenerate with: cargo run --release --example {example} -- --write {path}");
        std::process::exit(1);
    }

    if let Some(path) = flag_value(&args, "--write") {
        let mut doc = read(&path);
        for (name, text) in blocks {
            doc = splice_block(&doc, name, text)
                .unwrap_or_else(|| panic!("{path} has no markers for generated block {name:?}"));
        }
        std::fs::write(&path, doc).expect("writing the doc");
        println!("{path}: spliced {} generated IR excerpts", blocks.len());
        return;
    }

    for (name, text) in blocks {
        println!("\n{}\n== {name}\n{}\n", "=".repeat(72), "=".repeat(72));
        println!("{text}");
    }
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn markers(name: &str) -> (String, String) {
    (
        format!("<!-- generated:{name} -->"),
        format!("<!-- /generated:{name} -->"),
    )
}

/// The text between a block's markers (exclusive), without the ```text fence.
fn extract_block(doc: &str, name: &str) -> Option<String> {
    let (open, close) = markers(name);
    let start = doc.find(&open)? + open.len();
    let end = doc[start..].find(&close)? + start;
    let body = &doc[start..end];
    let body = body.trim_start_matches('\n');
    let body = body.strip_prefix("```text\n")?;
    let body = body
        .strip_suffix("```\n")
        .or_else(|| body.strip_suffix("```"))?;
    Some(body.to_string())
}

/// Replaces a block's contents, keeping the markers and the ```text fence.
fn splice_block(doc: &str, name: &str, text: &str) -> Option<String> {
    let (open, close) = markers(name);
    let start = doc.find(&open)? + open.len();
    let end = doc[start..].find(&close)? + start;
    let mut out = String::with_capacity(doc.len() + text.len());
    out.push_str(&doc[..start]);
    out.push_str("\n```text\n");
    out.push_str(text.trim_end());
    out.push_str("\n```\n");
    out.push_str(&doc[end..]);
    Some(out)
}
