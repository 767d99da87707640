//! Test support shared by `bench_exec` and `bench_serve` (included with
//! `#[path]` from their test modules): what a regenerated artifact must
//! have in common with the checked-in one.

use halide_trace::JsonValue;

/// An object's keys; for an array of rows, the first row's keys.
fn layout(v: &JsonValue) -> String {
    match v {
        JsonValue::Object(fields) => {
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            keys.join(",")
        }
        JsonValue::Array(rows) => rows.first().map(layout).unwrap_or_default(),
        _ => String::new(),
    }
}

/// Asserts that `doc` reads back from its pretty form unchanged, and that
/// it has exactly the sections of the `checked_in` artifact, in the same
/// order and with the same keys.
pub fn assert_matches_checked_in(doc: &JsonValue, checked_in: &str) {
    let mut text = String::new();
    doc.write_pretty(&mut text);
    assert_eq!(JsonValue::parse(&text).as_ref(), Ok(doc));

    let checked_in = JsonValue::parse(checked_in).expect("the checked-in artifact parses");
    let JsonValue::Object(sections) = &checked_in else {
        panic!("the checked-in artifact is an object");
    };
    assert_eq!(layout(doc), layout(&checked_in));
    for (name, old) in sections {
        let new = doc.get(name).expect("every checked-in section is emitted");
        assert_eq!(layout(new), layout(old), "{name}");
    }
}
