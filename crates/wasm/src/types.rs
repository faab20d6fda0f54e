//! Core WebAssembly types: value types, runtime values, function
//! signatures and limits.

use std::fmt;

/// A WebAssembly value type: the MVP's two integer types, the only ones
/// the engine's guests compute in. `f32`, `f64` and the reference types
/// are outside the reproduced subset; a module that declares one is a
/// decode error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValType {
    /// 32-bit integer (also used for pointers into linear memory).
    I32,
    /// 64-bit integer.
    I64,
}

impl ValType {
    /// The binary-format type byte (spec §5.3.1).
    pub fn to_byte(self) -> u8 {
        match self {
            ValType::I32 => 0x7F,
            ValType::I64 => 0x7E,
        }
    }

    /// Parses a binary-format type byte.
    pub fn from_byte(b: u8) -> Option<Self> {
        match b {
            0x7F => Some(ValType::I32),
            0x7E => Some(ValType::I64),
            _ => None,
        }
    }
}

impl fmt::Display for ValType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValType::I32 => "i32",
            ValType::I64 => "i64",
        };
        f.write_str(s)
    }
}

/// A runtime WebAssembly value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// An `i32` value.
    I32(i32),
    /// An `i64` value.
    I64(i64),
}

impl Value {
    /// The value's type.
    pub fn ty(&self) -> ValType {
        match self {
            Value::I32(_) => ValType::I32,
            Value::I64(_) => ValType::I64,
        }
    }

    /// The zero value of `ty` (locals default to zero).
    pub fn zero(ty: ValType) -> Self {
        match ty {
            ValType::I32 => Value::I32(0),
            ValType::I64 => Value::I64(0),
        }
    }

    /// Returns the `i32` payload, if this is an [`Value::I32`].
    pub fn as_i32(&self) -> Option<i32> {
        match self {
            Value::I32(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the `i64` payload, if this is an [`Value::I64`].
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I32(v) => write!(f, "i32:{v}"),
            Value::I64(v) => write!(f, "i64:{v}"),
        }
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I32(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::I32(v as i32)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

/// A function signature: parameter and result types.
///
/// ```
/// # use roadrunner_wasm::types::{FuncType, ValType};
/// let sig = FuncType::new([ValType::I32, ValType::I32], [ValType::I32]);
/// assert_eq!(sig.params().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct FuncType {
    params: Vec<ValType>,
    results: Vec<ValType>,
}

impl FuncType {
    /// Creates a signature from parameter and result type lists.
    pub fn new(
        params: impl IntoIterator<Item = ValType>,
        results: impl IntoIterator<Item = ValType>,
    ) -> Self {
        Self {
            params: params.into_iter().collect(),
            results: results.into_iter().collect(),
        }
    }

    /// Parameter types.
    pub fn params(&self) -> &[ValType] {
        &self.params
    }

    /// Result types.
    pub fn results(&self) -> &[ValType] {
        &self.results
    }
}

impl fmt::Display for FuncType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, ") -> (")?;
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, ")")
    }
}

/// Memory limits in 64 KiB pages (spec §2.5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Initial page count.
    pub min: u32,
    /// Optional maximum page count.
    pub max: Option<u32>,
}

impl Limits {
    /// Creates limits; `max = None` means growable to the engine cap.
    pub fn new(min: u32, max: Option<u32>) -> Self {
        Self { min, max }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valtype_byte_round_trip() {
        for ty in [ValType::I32, ValType::I64] {
            assert_eq!(ValType::from_byte(ty.to_byte()), Some(ty));
        }
        // f32, f64 and a byte that is no type at all.
        for b in [0x7D, 0x7C, 0x00] {
            assert_eq!(ValType::from_byte(b), None);
        }
    }

    #[test]
    fn value_type_and_accessors() {
        assert_eq!(Value::I32(5).ty(), ValType::I32);
        assert_eq!(Value::I32(5).as_i32(), Some(5));
        assert_eq!(Value::I32(5).as_i64(), None);
        assert_eq!(Value::I64(-1).as_i64(), Some(-1));
        assert_eq!(Value::I64(-1).ty(), ValType::I64);
    }

    #[test]
    fn zero_values() {
        assert_eq!(Value::zero(ValType::I32), Value::I32(0));
        assert_eq!(Value::zero(ValType::I64), Value::I64(0));
    }

    #[test]
    fn functype_display() {
        let sig = FuncType::new([ValType::I32, ValType::I64], [ValType::I64]);
        assert_eq!(sig.to_string(), "(i32, i64) -> (i64)");
    }
}
