//! A process-wide registry of defined functions.
//!
//! Halide pipelines are graphs of named functions; a call site in an
//! expression refers to its producer purely by name (`Call` nodes in the IR
//! carry only a string). To let [`crate::Pipeline`] recover the `Func` object
//! behind each name without forcing users to enumerate every stage of a
//! 99-stage pipeline by hand, every `Func` registers itself here on creation.
//!
//! Names are made unique on registration (a `$n` suffix is appended on
//! collision), so independently constructed pipelines — including pipelines
//! built concurrently from different tests — never interfere: each call site
//! refers to the unique name of the exact object it was created from.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::func::FuncInner;

#[derive(Default)]
struct Table {
    funcs: HashMap<String, Arc<Mutex<FuncInner>>>,
    /// Per requested name, the first `$n` suffix not yet known to be taken.
    /// Names are never removed, so every suffix below it stays taken and a
    /// registration resumes here instead of probing from `$1`.
    next_suffix: HashMap<String, usize>,
}

fn table() -> &'static Mutex<Table> {
    static TABLE: OnceLock<Mutex<Table>> = OnceLock::new();
    TABLE.get_or_init(Mutex::default)
}

/// Registers a function under `requested` name, returning the (possibly
/// uniquified) name actually used.
///
/// The registry keeps the definition alive for the lifetime of the process:
/// pipelines refer to their producers purely by name, and helper functions
/// routinely build intermediate stages whose frontend handles go out of scope
/// long before the pipeline is compiled (e.g. the `downx` stage inside a
/// `downsample` helper). The retained state is just the definition expression
/// and schedule, a few kilobytes per stage.
pub(crate) fn register(requested: &str, inner: Arc<Mutex<FuncInner>>) -> String {
    let mut t = table().lock().expect("func registry poisoned");
    let Table { funcs, next_suffix } = &mut *t;
    let n = next_suffix.entry(requested.to_string()).or_insert(0);
    loop {
        let name = match *n {
            0 => requested.to_string(),
            n => format!("{requested}${n}"),
        };
        *n += 1;
        if !funcs.contains_key(&name) {
            funcs.insert(name.clone(), inner);
            return name;
        }
    }
}

/// Looks up a registered function by its unique name.
pub(crate) fn lookup(name: &str) -> Option<Arc<Mutex<FuncInner>>> {
    let t = table().lock().expect("func registry poisoned");
    t.funcs.get(name).cloned()
}

#[cfg(test)]
mod tests {
    use crate::func::Func;
    use crate::var::Var;
    use halide_ir::Expr;

    #[test]
    fn names_are_uniquified_and_resolvable() {
        let x = Var::new("x");
        let a = Func::new("registry_test_f");
        a.define(&[x.clone()], Expr::int(1));
        let b = Func::new("registry_test_f");
        b.define(&[x], Expr::int(2));
        assert_ne!(a.name(), b.name());
        assert!(super::lookup(&a.name()).is_some());
        assert!(super::lookup(&b.name()).is_some());
        assert!(super::lookup("registry_test_does_not_exist").is_none());

        // Successive registrations of one name count up without gaps.
        let names: Vec<String> = (0..1000)
            .map(|_| Func::new("registry_test_seq").name())
            .collect();
        assert_eq!(names[0], "registry_test_seq");
        for (i, name) in names.iter().enumerate().skip(1) {
            assert_eq!(*name, format!("registry_test_seq${i}"));
        }

        // A name already taken literally is skipped, not reused.
        assert_eq!(
            Func::new("registry_test_lit$3").name(),
            "registry_test_lit$3"
        );
        let names: Vec<String> = (0..5)
            .map(|_| Func::new("registry_test_lit").name())
            .collect();
        let want = ["", "$1", "$2", "$4", "$5"].map(|s| format!("registry_test_lit{s}"));
        assert_eq!(names, want);
    }
}
