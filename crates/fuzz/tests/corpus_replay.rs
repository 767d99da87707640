//! Replays every checked-in corpus case (`tests/corpus/*.case` at the
//! workspace root) through the full differential matrix on every
//! `cargo test`. Each file is either a minimized reproduction of a bug the
//! fuzzer once found (now fixed — this is its permanent regression test) or
//! a pinned generated case guarding the replay path itself.

use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

#[test]
fn every_corpus_case_passes_the_differential_matrix() {
    let dir = corpus_dir();
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {} missing: {e}", dir.display()))
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    files.sort();
    assert!(
        !files.is_empty(),
        "corpus at {} holds no .case files; the replay harness would be vacuous",
        dir.display()
    );
    for path in files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: unreadable: {e}"));
        let case = halide_fuzz::corpus::from_text(&text)
            .unwrap_or_else(|e| panic!("{name}: parse error: {e}"));
        let (built, module) = halide_fuzz::admit(&case)
            .unwrap_or_else(|e| panic!("{name}: case is no longer admissible: {e}"));
        halide_fuzz::run::run_case_lowered(&case, &built, &module)
            .unwrap_or_else(|e| panic!("{name}: differential failure:\n{e}"));
    }
}

/// The corpus format itself stays parseable: serializing any parsed case
/// reproduces an equal case (guards against format drift breaking old
/// files silently).
#[test]
fn corpus_files_round_trip_through_the_writer() {
    let dir = corpus_dir();
    for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.extension().is_none_or(|x| x != "case") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let case = halide_fuzz::corpus::from_text(&text).unwrap();
        let again = halide_fuzz::corpus::from_text(&halide_fuzz::corpus::to_text(&case)).unwrap();
        assert_eq!(
            case,
            again,
            "{} drifted through a round-trip",
            path.display()
        );
    }
}
