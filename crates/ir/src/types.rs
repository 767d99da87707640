//! Scalar and vector types for the Halide IR.
//!
//! Types mirror the paper's value model: fixed-width integers, unsigned
//! integers, IEEE floats and booleans, each of which may be widened to a
//! vector of `lanes` elements by the vectorization pass (Sec. 4.5).

use std::fmt;

/// The element kind of a [`Type`], without a lane count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScalarType {
    /// Signed two's-complement integer with the given bit width (8/16/32/64).
    Int(u8),
    /// Unsigned integer with the given bit width (1 is used for booleans).
    UInt(u8),
    /// IEEE-754 binary floating point with the given bit width (32/64).
    Float(u8),
}

impl ScalarType {
    /// Number of bits in one element.
    pub fn bits(self) -> u8 {
        match self {
            ScalarType::Int(b) | ScalarType::UInt(b) | ScalarType::Float(b) => b,
        }
    }

    /// Number of bytes one element occupies in a buffer.
    pub fn bytes(self) -> usize {
        (self.bits() as usize).div_ceil(8)
    }

    /// True for both signed and unsigned integer kinds.
    pub fn is_int(self) -> bool {
        matches!(self, ScalarType::Int(_) | ScalarType::UInt(_))
    }

    /// True for floating-point kinds.
    pub fn is_float(self) -> bool {
        matches!(self, ScalarType::Float(_))
    }

    /// True for unsigned integer kinds (including the 1-bit boolean).
    pub fn is_uint(self) -> bool {
        matches!(self, ScalarType::UInt(_))
    }

    /// Largest representable value, as an `f64` (used by `clamp`-style
    /// saturation helpers and by the simplifier).
    pub fn max_value_f64(self) -> f64 {
        match self {
            ScalarType::Int(b) => ((1i128 << (b - 1)) - 1) as f64,
            ScalarType::UInt(1) => 1.0,
            ScalarType::UInt(b) => ((1i128 << b) - 1) as f64,
            ScalarType::Float(32) => f32::MAX as f64,
            ScalarType::Float(_) => f64::MAX,
        }
    }

    /// Smallest representable value, as an `f64`.
    pub fn min_value_f64(self) -> f64 {
        match self {
            ScalarType::Int(b) => -((1i128 << (b - 1)) as f64),
            ScalarType::UInt(_) => 0.0,
            ScalarType::Float(32) => f32::MIN as f64,
            ScalarType::Float(_) => f64::MIN,
        }
    }
}

impl fmt::Display for ScalarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarType::Int(b) => write!(f, "int{b}"),
            ScalarType::UInt(1) => write!(f, "bool"),
            ScalarType::UInt(b) => write!(f, "uint{b}"),
            ScalarType::Float(b) => write!(f, "float{b}"),
        }
    }
}

/// A complete IR value type: a [`ScalarType`] plus a lane count.
///
/// `lanes == 1` is a scalar; `lanes > 1` is a SIMD-style vector produced by
/// the vectorization pass.
///
/// # Examples
///
/// ```
/// use halide_ir::Type;
/// let t = Type::f32();
/// assert!(t.is_scalar());
/// assert_eq!(t.with_lanes(8).lanes(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Type {
    scalar: ScalarType,
    lanes: u16,
}

impl Type {
    /// Creates a type from a scalar kind and lane count.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(scalar: ScalarType, lanes: u16) -> Self {
        assert!(lanes > 0, "a type must have at least one lane");
        Type { scalar, lanes }
    }

    /// Signed 8-bit integer.
    pub fn i8() -> Self {
        Type::new(ScalarType::Int(8), 1)
    }
    /// Signed 16-bit integer.
    pub fn i16() -> Self {
        Type::new(ScalarType::Int(16), 1)
    }
    /// Signed 32-bit integer (the type of loop variables and coordinates).
    pub fn i32() -> Self {
        Type::new(ScalarType::Int(32), 1)
    }
    /// Signed 64-bit integer.
    pub fn i64() -> Self {
        Type::new(ScalarType::Int(64), 1)
    }
    /// Unsigned 8-bit integer (the typical pixel type).
    pub fn u8() -> Self {
        Type::new(ScalarType::UInt(8), 1)
    }
    /// Unsigned 16-bit integer.
    pub fn u16() -> Self {
        Type::new(ScalarType::UInt(16), 1)
    }
    /// Unsigned 32-bit integer.
    pub fn u32() -> Self {
        Type::new(ScalarType::UInt(32), 1)
    }
    /// Unsigned 64-bit integer.
    pub fn u64() -> Self {
        Type::new(ScalarType::UInt(64), 1)
    }
    /// 32-bit float.
    pub fn f32() -> Self {
        Type::new(ScalarType::Float(32), 1)
    }
    /// 64-bit float.
    pub fn f64() -> Self {
        Type::new(ScalarType::Float(64), 1)
    }
    /// Boolean, represented as a 1-bit unsigned integer.
    pub fn bool() -> Self {
        Type::new(ScalarType::UInt(1), 1)
    }

    /// The scalar element kind.
    pub fn scalar(self) -> ScalarType {
        self.scalar
    }

    /// The number of lanes.
    pub fn lanes(self) -> u16 {
        self.lanes
    }

    /// The same type with a different lane count.
    pub fn with_lanes(self, lanes: u16) -> Self {
        Type::new(self.scalar, lanes)
    }

    /// The scalar element type (lane count forced to 1).
    pub fn element_of(self) -> Self {
        self.with_lanes(1)
    }

    /// True when `lanes == 1`.
    pub fn is_scalar(self) -> bool {
        self.lanes == 1
    }

    /// True when `lanes > 1`.
    pub fn is_vector(self) -> bool {
        self.lanes > 1
    }

    /// True when the element is a float.
    pub fn is_float(self) -> bool {
        self.scalar.is_float()
    }

    /// True when the element is a signed or unsigned integer.
    pub fn is_int(self) -> bool {
        self.scalar.is_int()
    }

    /// True when the element is an unsigned integer.
    pub fn is_uint(self) -> bool {
        self.scalar.is_uint()
    }

    /// True when this is the 1-bit boolean type (any lane count).
    pub fn is_bool(self) -> bool {
        self.scalar == ScalarType::UInt(1)
    }

    /// Bits per element.
    pub fn bits(self) -> u8 {
        self.scalar.bits()
    }

    /// Bytes per element (vector types report a single element).
    pub fn bytes(self) -> usize {
        self.scalar.bytes()
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lanes == 1 {
            write!(f, "{}", self.scalar)
        } else {
            write!(f, "{}x{}", self.scalar, self.lanes)
        }
    }
}

impl Default for Type {
    fn default() -> Self {
        Type::i32()
    }
}

/// Computes the type two operands are promoted to when combined by a binary
/// arithmetic operator.
///
/// Rules (a pragmatic subset of Halide's implicit promotion):
/// floats dominate integers, signed dominates unsigned of the same width,
/// wider dominates narrower, and the lane count is the maximum of the two
/// (one side must be scalar or the lane counts must match).
///
/// # Panics
///
/// Panics if both operands are vectors of different widths, which has no
/// meaningful promotion.
pub fn promote(a: Type, b: Type) -> Type {
    let lanes = match (a.lanes(), b.lanes()) {
        (1, l) | (l, 1) => l,
        (la, lb) if la == lb => la,
        (la, lb) => panic!("cannot promote vectors of different widths {la} and {lb}"),
    };
    let scalar = match (a.scalar(), b.scalar()) {
        (ScalarType::Float(x), ScalarType::Float(y)) => ScalarType::Float(x.max(y)),
        (ScalarType::Float(x), _) | (_, ScalarType::Float(x)) => ScalarType::Float(x),
        (ScalarType::Int(x), ScalarType::Int(y)) => ScalarType::Int(x.max(y)),
        (ScalarType::UInt(x), ScalarType::UInt(y)) => ScalarType::UInt(x.max(y)),
        (ScalarType::Int(x), ScalarType::UInt(y)) | (ScalarType::UInt(y), ScalarType::Int(x)) => {
            ScalarType::Int(x.max(y))
        }
    };
    Type::new(scalar, lanes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_bits_and_bytes() {
        assert_eq!(ScalarType::UInt(8).bits(), 8);
        assert_eq!(ScalarType::UInt(8).bytes(), 1);
        assert_eq!(ScalarType::Int(32).bytes(), 4);
        assert_eq!(ScalarType::Float(64).bytes(), 8);
        assert_eq!(ScalarType::UInt(1).bytes(), 1);
    }

    #[test]
    fn type_constructors() {
        assert!(Type::f32().is_float());
        assert!(Type::u8().is_uint());
        assert!(Type::i32().is_int());
        assert!(Type::bool().is_bool());
        assert!(!Type::f32().is_int());
        assert_eq!(Type::i32().bits(), 32);
    }

    #[test]
    fn lane_manipulation() {
        let v = Type::f32().with_lanes(8);
        assert!(v.is_vector());
        assert_eq!(v.lanes(), 8);
        assert_eq!(v.element_of(), Type::f32());
        assert!(Type::u16().is_scalar());
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_rejected() {
        let _ = Type::new(ScalarType::Int(32), 0);
    }

    #[test]
    fn promotion_rules() {
        assert_eq!(promote(Type::i32(), Type::f32()), Type::f32());
        assert_eq!(promote(Type::u8(), Type::u16()), Type::u16());
        assert_eq!(promote(Type::u8(), Type::i32()), Type::i32());
        assert_eq!(promote(Type::f32(), Type::f64()), Type::f64());
        assert_eq!(
            promote(Type::i32().with_lanes(4), Type::i32()),
            Type::i32().with_lanes(4)
        );
    }

    #[test]
    #[should_panic(expected = "different widths")]
    fn promotion_rejects_mismatched_vectors() {
        let _ = promote(Type::i32().with_lanes(4), Type::i32().with_lanes(8));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Type::i32().to_string(), "int32");
        assert_eq!(Type::u8().with_lanes(16).to_string(), "uint8x16");
        assert_eq!(Type::bool().to_string(), "bool");
        assert_eq!(Type::f64().to_string(), "float64");
    }

    #[test]
    fn min_max_values() {
        assert_eq!(ScalarType::UInt(8).max_value_f64(), 255.0);
        assert_eq!(ScalarType::Int(8).max_value_f64(), 127.0);
        assert_eq!(ScalarType::Int(8).min_value_f64(), -128.0);
        assert_eq!(ScalarType::UInt(16).min_value_f64(), 0.0);
    }
}
