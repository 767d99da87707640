//! The output oracle. Three independent checks, none of which uses the
//! engine under test as its own reference:
//!
//! 1. blur and histogram against the hand-written
//!    `pipelines::{blur,histogram}::reference` at the timed size;
//! 2. every app against `Backend::Interp` on the naive schedule, one thread,
//!    at [`ORACLE_SIZE`];
//! 3. every timed repetition's checksum against repetition 1's.
//!
//! Integer outputs must match exactly; float outputs may differ by less than
//! 1e-4, or by two f32 units in the last place where that is larger (the
//! 1080p blur input reaches ~1050, where one ulp is already 1.2e-4, and the
//! hand-written reference divides in f64 where the engine divides in f32).

use halide_exec::{Backend, Realizer};
use halide_ir::ScalarType;
use halide_pipelines::{blur, histogram, AppKind, ScheduleChoice};
use halide_runtime::Buffer;

/// Size of the interpreter cross-check, and of every image in `--smoke`
/// runs. The interpreter needs ~4 s for local Laplacian at 96×64, which no
/// per-run budget affords; 64×32 is the smallest size the tuned blur
/// schedule accepts (64×32 tiles), still builds three pyramid levels, and
/// costs a third of that.
pub const ORACLE_SIZE: (i64, i64) = (64, 32);

/// Float outputs may differ from the reference by less than this (or two
/// f32 ulps of the expected value, whichever is larger).
pub const FLOAT_TOLERANCE: f64 = 1e-4;

/// Compares an output against its reference.
///
/// # Errors
///
/// A description of the first way the output is wrong: element type, shape,
/// or the first element outside the tolerance.
pub fn check(actual: &Buffer, expected: &Buffer) -> Result<(), String> {
    if actual.ty() != expected.ty() {
        return Err(format!(
            "element type {:?}, expected {:?}",
            actual.ty(),
            expected.ty()
        ));
    }
    if actual.dims() != expected.dims() {
        return Err(format!(
            "shape {:?}, expected {:?}",
            actual.dims(),
            expected.dims()
        ));
    }
    let float = matches!(actual.ty(), ScalarType::Float(_));
    // Not `Buffer::max_abs_diff`: it folds with `f64::max`, which drops NaN,
    // so a NaN pixel would read as a perfect match.
    for i in 0..actual.len() {
        let (a, e) = (actual.get_flat_f64(i), expected.get_flat_f64(i));
        if a.to_bits() == e.to_bits() {
            continue;
        }
        let diff = (a - e).abs();
        if diff.is_nan() {
            return Err(format!("element {i} is {a}, expected {e}"));
        }
        let allowed = FLOAT_TOLERANCE.max(2.0 * f64::from(f32::EPSILON) * e.abs());
        if !float || diff >= allowed {
            return Err(format!("element {i} is {a}, expected {e}"));
        }
    }
    Ok(())
}

/// FNV-1a over every element's bit pattern and the shape: equal buffers
/// hash equal, and one flipped pixel changes the hash.
pub fn checksum(buf: &Buffer) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for d in buf.dims() {
        mix(d.extent as u64);
    }
    for i in 0..buf.len() {
        mix(buf.get_flat_f64(i).to_bits());
    }
    h
}

/// The hand-written reference for the two apps that have one.
pub fn hand_written_reference(app: AppKind, input: &Buffer) -> Option<Buffer> {
    match app {
        AppKind::Blur => Some(blur::reference(input)),
        AppKind::Histogram => Some(histogram::reference(input)),
        _ => None,
    }
}

/// The app's output at `width`×`height` as the tree-walking interpreter
/// computes it from the naive schedule on one thread — independent of the
/// compiled engine, its optimizer, every tuned schedule and the thread pool.
///
/// # Errors
///
/// Lowering or interpretation failed; the message names the app.
pub fn interpreter_reference(app: AppKind, width: i64, height: i64) -> Result<Buffer, String> {
    let built = app
        .build(width, height, ScheduleChoice::Naive)
        .map_err(|e| format!("{}: oracle lowering failed: {e}", app.slug()))?;
    Realizer::new(&built.module)
        .input(built.input_name.clone(), app.make_input(width, height))
        .threads(1)
        .instrument(false)
        .backend(Backend::Interp)
        .realize(&app.output_extents(width, height))
        .map(|r| r.output)
        .map_err(|e| format!("{}: oracle interpretation failed: {e}", app.slug()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(ty: ScalarType) -> Buffer {
        Buffer::from_fn_2d(ty, 8, 4, |x, y| (x + 8 * y) as f64)
    }

    #[test]
    fn identical_buffers_pass_and_hash_equal() {
        for ty in [ScalarType::Float(32), ScalarType::UInt(8)] {
            let (a, b) = (ramp(ty), ramp(ty));
            assert_eq!(check(&a, &b), Ok(()));
            assert_eq!(checksum(&a), checksum(&b));
        }
    }

    #[test]
    fn one_perturbed_pixel_fails_the_check_and_changes_the_hash() {
        let expected = ramp(ScalarType::UInt(8));
        let off_by_one = ramp(ScalarType::UInt(8));
        off_by_one.set_coords_i64(&[3, 2], expected.at_i64(&[3, 2]) + 1);
        assert!(check(&off_by_one, &expected).is_err(), "integers are exact");
        assert_ne!(checksum(&off_by_one), checksum(&expected));

        let expected = ramp(ScalarType::Float(32));
        let nudged = ramp(ScalarType::Float(32));
        nudged.set_coords_f64(&[3, 2], expected.at_f64(&[3, 2]) + 1e-5);
        assert_eq!(check(&nudged, &expected), Ok(()), "inside the tolerance");
        assert_ne!(checksum(&nudged), checksum(&expected));
        nudged.set_coords_f64(&[3, 2], expected.at_f64(&[3, 2]) + 1e-3);
        assert!(check(&nudged, &expected).is_err(), "outside the tolerance");
        let big = Buffer::from_fn_2d(ScalarType::Float(32), 2, 1, |_, _| 1050.0);
        let one_ulp_off = Buffer::from_fn_2d(ScalarType::Float(32), 2, 1, |_, _| 1_050.000_122);
        assert_eq!(
            check(&one_ulp_off, &big),
            Ok(()),
            "one f32 ulp at 1050 is 1.2e-4"
        );
        nudged.set_coords_f64(&[3, 2], f64::NAN);
        assert!(check(&nudged, &expected).is_err(), "NaN never passes");
    }

    #[test]
    fn wrong_shape_or_type_fails_without_panicking() {
        let a = ramp(ScalarType::UInt(8));
        assert!(check(&a, &ramp(ScalarType::UInt(16))).is_err());
        let wide = Buffer::from_fn_2d(ScalarType::UInt(8), 9, 4, |_, _| 0.0);
        assert!(check(&a, &wide).is_err());
    }

    #[test]
    fn interpreter_and_hand_written_references_agree_on_blur_and_histogram() {
        for app in [AppKind::Blur, AppKind::Histogram] {
            let by_hand = hand_written_reference(app, &app.make_input(64, 32)).unwrap();
            let by_interp = interpreter_reference(app, 64, 32).unwrap();
            assert_eq!(check(&by_interp, &by_hand), Ok(()), "{}", app.slug());
        }
        assert!(hand_written_reference(AppKind::CameraPipe, &ramp(ScalarType::UInt(16))).is_none());
    }
}
