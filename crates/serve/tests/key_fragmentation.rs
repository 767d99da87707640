//! Table-driven cache-key fragmentation test: exactly the four axes of
//! [`ProgramKey`] — app, schedule, output shape, and scalar-parameter
//! *signature* — may fragment the program cache, and each one must.
//! Anything else (parameter values, parameter binding order, duplicate
//! bindings) must collapse onto an existing entry and come back warm,
//! because a knob that recompiles per value defeats the compile-once /
//! realize-many contract the serving layer exists for. The backend and the
//! optimizer level are not key axes: a cache is built for one of each.

use halide_exec::{Backend, OptLevel};
use halide_pipelines::{AppKind, ScheduleChoice};
use halide_serve::{ParamValue, ProgramCache, ProgramKey};

fn gain(v: f32) -> Vec<(String, ParamValue)> {
    vec![("gain".to_string(), ParamValue::F32(v))]
}

/// The base point in key space every variation below starts from. Small
/// shape so the whole table compiles in well under a second.
fn base_key() -> ProgramKey {
    ProgramKey::new(AppKind::Blur, ScheduleChoice::Tuned, (32, 32), &gain(1.0))
}

/// One row of the fragmentation table: a named single-axis variation of the
/// base key that must select a *different* compiled program.
struct Axis {
    name: &'static str,
    key: ProgramKey,
}

fn fragmenting_axes() -> Vec<Axis> {
    vec![
        Axis {
            name: "app",
            key: ProgramKey::new(
                AppKind::Histogram,
                ScheduleChoice::Tuned,
                (32, 32),
                &gain(1.0),
            ),
        },
        Axis {
            name: "schedule",
            key: ProgramKey::new(AppKind::Blur, ScheduleChoice::Naive, (32, 32), &gain(1.0)),
        },
        Axis {
            name: "shape",
            key: ProgramKey::new(AppKind::Blur, ScheduleChoice::Tuned, (48, 32), &gain(1.0)),
        },
        Axis {
            name: "param-signature (extra name)",
            key: ProgramKey::new(
                AppKind::Blur,
                ScheduleChoice::Tuned,
                (32, 32),
                &[
                    ("gain".to_string(), ParamValue::F32(1.0)),
                    ("bias".to_string(), ParamValue::I32(0)),
                ],
            ),
        },
        Axis {
            name: "param-signature (type change)",
            key: ProgramKey::new(
                AppKind::Blur,
                ScheduleChoice::Tuned,
                (32, 32),
                &[("gain".to_string(), ParamValue::I32(1))],
            ),
        },
    ]
}

/// Variations that must NOT fragment: same program, warm on re-request.
fn collapsing_keys() -> Vec<(&'static str, ProgramKey)> {
    vec![
        (
            "different param value",
            ProgramKey::new(AppKind::Blur, ScheduleChoice::Tuned, (32, 32), &gain(-7.25)),
        ),
        (
            "duplicate binding of the same param",
            ProgramKey::new(
                AppKind::Blur,
                ScheduleChoice::Tuned,
                (32, 32),
                &[
                    ("gain".to_string(), ParamValue::F32(1.0)),
                    ("gain".to_string(), ParamValue::F32(2.0)),
                ],
            ),
        ),
    ]
}

#[test]
fn every_axis_fragments_and_nothing_else_does() {
    let cache = ProgramCache::new(Backend::Compiled, OptLevel::Default, usize::MAX);
    let base = base_key();

    let (_, cold) = cache.get_or_compile(&base).unwrap();
    assert!(cold, "first request for the base key must compile");
    assert_eq!(cache.len(), 1);

    // Each axis variation is a distinct key: cold once, exactly one new
    // entry, warm on the second request.
    for (i, axis) in fragmenting_axes().iter().enumerate() {
        assert_ne!(
            axis.key, base,
            "{} variation must produce a different key",
            axis.name
        );
        let before = cache.len();
        let (first, cold) = cache.get_or_compile(&axis.key).unwrap();
        assert!(cold, "{} variation must compile cold", axis.name);
        assert_eq!(
            cache.len(),
            before + 1,
            "{} variation must add exactly one entry",
            axis.name
        );
        let (second, cold) = cache.get_or_compile(&axis.key).unwrap();
        assert!(!cold, "{} variation must be warm on re-request", axis.name);
        assert!(
            std::sync::Arc::ptr_eq(&first, &second),
            "{} variation must share one compiled program",
            axis.name
        );
        assert_eq!(cache.cold_compiles(), (i + 2) as u64);
    }

    let fragmented = cache.len();
    assert_eq!(fragmented, 1 + fragmenting_axes().len());

    // Value-only and order-only variations collapse onto the base entry.
    let (base_entry, _) = cache.get_or_compile(&base).unwrap();
    for (name, key) in collapsing_keys() {
        assert_eq!(key, base, "{name} must normalize to the base key");
        let (entry, cold) = cache.get_or_compile(&key).unwrap();
        assert!(!cold, "{name} must be served warm");
        assert!(
            std::sync::Arc::ptr_eq(&entry, &base_entry),
            "{name} must share the base program"
        );
    }
    assert_eq!(
        cache.len(),
        fragmented,
        "collapsing variations must not add entries"
    );
}

/// The same key compiled by caches at the two [`OptLevel`]s gives
/// genuinely different artifacts: same semantics, different instruction
/// streams. This is why a cache is built for one level.
#[test]
fn opt_levels_are_distinct_artifacts() {
    let key = ProgramKey::new(AppKind::Blur, ScheduleChoice::Tuned, (32, 32), &[]);
    let compile = |opt| {
        let cache = ProgramCache::new(Backend::Compiled, opt, usize::MAX);
        let (entry, cold) = cache.get_or_compile(&key).unwrap();
        assert!(cold);
        entry
    };
    let none = compile(OptLevel::None);
    let opt = compile(OptLevel::Default);

    let none_report = none.program.as_ref().unwrap().opt_report();
    let opt_report = opt.program.as_ref().unwrap().opt_report();
    assert_eq!(none_report.level, OptLevel::None);
    assert_eq!(none_report.before_insts, none_report.after_insts);
    assert!(
        opt_report.after_insts < opt_report.before_insts,
        "the default level must actually eliminate instructions on blur"
    );
}
