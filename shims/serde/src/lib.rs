//! Offline shim for the subset of `serde` this workspace uses.
//!
//! Instead of serde's visitor architecture, the shim models
//! serialization as a direct JSON writer: [`Serialize`] impls stream
//! themselves into a [`Serializer`], which renders compact or 2-space
//! pretty JSON straight into a `String` with no intermediate tree.
//! Deserialization goes the other way through an owned [`Value`] tree
//! (JSON-shaped) that `serde_json` (the sibling shim) parses. The derive
//! macros come from the `serde_derive` shim and generate
//! `Serialize`/`Deserialize` impls for plain structs, tuple structs and
//! enums — `#[serde(...)]` attributes are not supported (and not used
//! anywhere in the workspace).
//!
//! Output is canonical: object keys are written in sorted byte order
//! (derived impls sort their field names at expansion time; maps are
//! sorted already or sorted on the way out), so typed output is
//! byte-identical to rendering the parsed [`Value`] tree of the same
//! document.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, HashMap};
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-shaped owned value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A negative integer (non-negative integers parse as [`Value::U64`]).
    I64(i64),
    /// A non-negative integer.
    U64(u64),
    /// A floating-point number.
    F64(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with deterministically ordered keys.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The value as an `f64` if it is any kind of number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::I64(v) => Some(v as f64),
            Value::U64(v) => Some(v as f64),
            Value::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an `i64` if exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::I64(v) => Some(v),
            Value::U64(v) => i64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as a `u64` if exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::I64(v) => u64::try_from(v).ok(),
            Value::U64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object map.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// `true` if this is `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// `true` if this is an array.
    pub fn is_array(&self) -> bool {
        matches!(self, Value::Array(_))
    }

    /// `true` if this is an object.
    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }

    /// Object member lookup (`None` on non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }
}

static NULL: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        self.as_array().and_then(|a| a.get(idx)).unwrap_or(&NULL)
    }
}

/// Numeric equality across the integer/float variants.
fn num_eq(v: &Value, n: f64) -> bool {
    v.as_f64() == Some(n)
}

impl PartialEq<i32> for Value {
    fn eq(&self, other: &i32) -> bool {
        num_eq(self, f64::from(*other))
    }
}

impl PartialEq<i64> for Value {
    fn eq(&self, other: &i64) -> bool {
        self.as_i64() == Some(*other)
    }
}

impl PartialEq<u64> for Value {
    fn eq(&self, other: &u64) -> bool {
        self.as_u64() == Some(*other)
    }
}

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        num_eq(self, *other)
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}

/// Serialization / deserialization error.
#[derive(Debug, Clone)]
pub struct Error {
    message: String,
}

impl Error {
    /// Creates an error with the given message.
    pub fn custom(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for Error {}

/// Streaming JSON writer that [`Serialize`] impls render into.
///
/// Compact mode writes no whitespace; pretty mode breaks every
/// non-empty array and object across lines with 2-space indentation
/// (`"key": value` inside objects) and keeps empty ones as `[]` / `{}`.
/// Non-finite floats render as `null`, matching real `serde_json`.
#[derive(Debug)]
pub struct Serializer<'a> {
    out: &'a mut String,
    pretty: bool,
    depth: usize,
}

impl<'a> Serializer<'a> {
    /// A compact writer appending to `out`.
    pub fn compact(out: &'a mut String) -> Self {
        Serializer {
            out,
            pretty: false,
            depth: 0,
        }
    }

    /// A 2-space-indented writer appending to `out`.
    pub fn pretty(out: &'a mut String) -> Self {
        Serializer {
            out,
            pretty: true,
            depth: 0,
        }
    }

    /// Writes `null`.
    pub fn write_null(&mut self) {
        self.out.push_str("null");
    }

    /// Writes `true` / `false`.
    pub fn write_bool(&mut self, v: bool) {
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Writes a non-negative integer.
    pub fn write_u64(&mut self, v: u64) {
        self.write_digits(false, v);
    }

    /// Writes a signed integer.
    pub fn write_i64(&mut self, v: i64) {
        self.write_digits(v < 0, v.unsigned_abs());
    }

    /// Writes `magnitude` in decimal, `-`-prefixed when `negative`,
    /// through a stack buffer: the bytes `Display` would write, without
    /// the formatting machinery.
    fn write_digits(&mut self, negative: bool, mut magnitude: u64) {
        // 20 digits hold `u64::MAX`, plus one for the sign.
        let mut buf = [0u8; 21];
        let mut start = buf.len();
        loop {
            start -= 1;
            buf[start] = b'0' + (magnitude % 10) as u8;
            magnitude /= 10;
            if magnitude == 0 {
                break;
            }
        }
        if negative {
            start -= 1;
            buf[start] = b'-';
        }
        self.out
            .push_str(std::str::from_utf8(&buf[start..]).expect("ASCII digits"));
    }

    /// Writes a float in Rust's shortest round-trip form, always with a
    /// fraction (real serde_json prints `1.0`, not `1`); non-finite
    /// values write `null`.
    pub fn write_f64(&mut self, v: f64) {
        if !v.is_finite() {
            self.write_null();
            return;
        }
        let start = self.out.len();
        // `Display` for f64 never uses an exponent, so a missing `.`
        // means an integral value.
        let _ = fmt::Write::write_fmt(self.out, format_args!("{v}"));
        if !self.out.as_bytes()[start..].contains(&b'.') {
            self.out.push_str(".0");
        }
    }

    /// Writes a JSON string literal, escaping quotes, backslashes and
    /// control characters.
    pub fn write_str(&mut self, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let out = &mut *self.out;
        out.push('"');
        // Copy unescaped runs whole; the bytes that need escaping are
        // ASCII, so every run ends on a char boundary.
        let mut run = 0;
        for (i, &b) in s.as_bytes().iter().enumerate() {
            if b != b'"' && b != b'\\' && b >= 0x20 {
                continue;
            }
            out.push_str(&s[run..i]);
            run = i + 1;
            match b {
                b'"' => out.push_str("\\\""),
                b'\\' => out.push_str("\\\\"),
                b'\n' => out.push_str("\\n"),
                b'\r' => out.push_str("\\r"),
                b'\t' => out.push_str("\\t"),
                _ => {
                    out.push_str("\\u00");
                    out.push(char::from(HEX[usize::from(b >> 4)]));
                    out.push(char::from(HEX[usize::from(b & 0xf)]));
                }
            }
        }
        out.push_str(&s[run..]);
        out.push('"');
    }

    /// Opens an object; write its entries with [`Compound::field`] (in
    /// sorted key order) and close it with [`Compound::end`].
    pub fn object(&mut self) -> Compound<'_, 'a> {
        self.open('{', '}')
    }

    /// Opens an array; write its items with [`Compound::element`] and
    /// close it with [`Compound::end`].
    pub fn array(&mut self) -> Compound<'_, 'a> {
        self.open('[', ']')
    }

    fn open(&mut self, open: char, close: char) -> Compound<'_, 'a> {
        self.out.push(open);
        self.depth += 1;
        Compound {
            ser: self,
            close,
            empty: true,
        }
    }

    fn newline_indent(&mut self) {
        if self.pretty {
            self.out.push('\n');
            for _ in 0..self.depth {
                self.out.push_str("  ");
            }
        }
    }
}

/// An open array or object inside a [`Serializer`].
#[derive(Debug)]
pub struct Compound<'s, 'a> {
    ser: &'s mut Serializer<'a>,
    close: char,
    empty: bool,
}

impl<'a> Compound<'_, 'a> {
    fn separate(&mut self) {
        if !self.empty {
            self.ser.out.push(',');
        }
        self.empty = false;
        self.ser.newline_indent();
    }

    /// Writes one `key: value` object entry. Callers write entries in
    /// sorted key order, which is what makes the output canonical.
    pub fn field<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) {
        self.field_with(key, |s| value.serialize(s));
    }

    /// Writes one object entry whose value `write` renders.
    pub fn field_with(&mut self, key: &str, write: impl FnOnce(&mut Serializer<'a>)) {
        self.separate();
        self.ser.write_str(key);
        self.value(write);
    }

    /// [`Compound::field`] with the key given as a finished JSON string
    /// literal — quotes and escapes included, e.g. `"\"seq\""` — which
    /// is copied as is. The derive macros quote field names when they
    /// expand, so derived impls pay no per-key escape scan at run time.
    pub fn field_quoted<T: Serialize + ?Sized>(&mut self, quoted_key: &str, value: &T) {
        self.field_quoted_with(quoted_key, |s| value.serialize(s));
    }

    /// [`Compound::field_with`] with an already-quoted key; see
    /// [`Compound::field_quoted`].
    pub fn field_quoted_with(&mut self, quoted_key: &str, write: impl FnOnce(&mut Serializer<'a>)) {
        self.separate();
        self.ser.out.push_str(quoted_key);
        self.value(write);
    }

    /// Writes the key/value separator, then the value.
    fn value(&mut self, write: impl FnOnce(&mut Serializer<'a>)) {
        self.ser
            .out
            .push_str(if self.ser.pretty { ": " } else { ":" });
        write(self.ser);
    }

    /// Writes one array element.
    pub fn element<T: Serialize + ?Sized>(&mut self, value: &T) {
        self.separate();
        value.serialize(self.ser);
    }

    /// Closes the array or object.
    pub fn end(self) {
        self.ser.depth -= 1;
        if !self.empty {
            self.ser.newline_indent();
        }
        self.ser.out.push(self.close);
    }
}

/// Rendering as JSON through a [`Serializer`].
pub trait Serialize {
    /// Writes `self` into `serializer`.
    fn serialize(&self, serializer: &mut Serializer<'_>);
}

/// Conversion out of the [`Value`] tree.
pub trait Deserialize: Sized {
    /// Deserializes `Self` from a [`Value`].
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when the value's shape does not match `Self`.
    fn from_value(value: &Value) -> Result<Self, Error>;
}

/// Compatibility module mirroring `serde::de`.
pub mod de {
    /// Owned deserialization — the shim's `Deserialize` is already owned,
    /// so this is a blanket alias trait.
    pub trait DeserializeOwned: crate::Deserialize {}
    impl<T: crate::Deserialize> DeserializeOwned for T {}
}

// ---------------------------------------------------------------------
// Serialize / Deserialize impls for std types.
// ---------------------------------------------------------------------

impl Serialize for Value {
    fn serialize(&self, s: &mut Serializer<'_>) {
        match self {
            Value::Null => s.write_null(),
            Value::Bool(b) => s.write_bool(*b),
            Value::I64(v) => s.write_i64(*v),
            Value::U64(v) => s.write_u64(*v),
            Value::F64(v) => s.write_f64(*v),
            Value::String(v) => s.write_str(v),
            Value::Array(items) => serialize_seq(s, items),
            Value::Object(map) => serialize_map(s, map.iter()),
        }
    }
}

/// Writes `items` as an array.
fn serialize_seq<'t, T: Serialize + 't>(
    s: &mut Serializer<'_>,
    items: impl IntoIterator<Item = &'t T>,
) {
    let mut a = s.array();
    for item in items {
        a.element(item);
    }
    a.end();
}

/// Writes `(key, value)` entries, already in sorted key order, as an
/// object.
fn serialize_map<'t, V: Serialize + 't>(
    s: &mut Serializer<'_>,
    entries: impl IntoIterator<Item = (&'t String, &'t V)>,
) {
    let mut o = s.object();
    for (key, value) in entries {
        o.field(key, value);
    }
    o.end();
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, s: &mut Serializer<'_>) {
        (**self).serialize(s);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self, s: &mut Serializer<'_>) {
        (**self).serialize(s);
    }
}

impl Serialize for bool {
    fn serialize(&self, s: &mut Serializer<'_>) {
        s.write_bool(*self);
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_bool()
            .ok_or_else(|| Error::custom("expected a boolean"))
    }
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, s: &mut Serializer<'_>) {
                s.write_i64(*self as i64);
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                value
                    .as_i64()
                    .and_then(|v| <$t>::try_from(v).ok())
                    .ok_or_else(|| Error::custom(concat!("expected ", stringify!($t))))
            }
        }
    )*};
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, s: &mut Serializer<'_>) {
                s.write_u64(*self as u64);
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                value
                    .as_u64()
                    .and_then(|v| <$t>::try_from(v).ok())
                    .ok_or_else(|| Error::custom(concat!("expected ", stringify!($t))))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);
impl_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn serialize(&self, s: &mut Serializer<'_>) {
        s.write_f64(*self);
    }
}

impl Deserialize for f64 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match *value {
            // Non-finite floats render as null in JSON; accept them back.
            Value::Null => Ok(f64::NAN),
            _ => value.as_f64().ok_or_else(|| Error::custom("expected f64")),
        }
    }
}

impl Serialize for f32 {
    fn serialize(&self, s: &mut Serializer<'_>) {
        s.write_f64(f64::from(*self));
    }
}

impl Deserialize for f32 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        f64::from_value(value).map(|v| v as f32)
    }
}

impl Serialize for String {
    fn serialize(&self, s: &mut Serializer<'_>) {
        s.write_str(self);
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| Error::custom("expected a string"))
    }
}

impl Serialize for str {
    fn serialize(&self, s: &mut Serializer<'_>) {
        s.write_str(self);
    }
}

impl Serialize for char {
    fn serialize(&self, s: &mut Serializer<'_>) {
        s.write_str(self.encode_utf8(&mut [0; 4]));
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, s: &mut Serializer<'_>) {
        match self {
            Some(v) => v.serialize(s),
            None => s.write_null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, s: &mut Serializer<'_>) {
        serialize_seq(s, self);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, s: &mut Serializer<'_>) {
        serialize_seq(s, self);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_array()
            .ok_or_else(|| Error::custom("expected an array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for std::collections::VecDeque<T> {
    fn serialize(&self, s: &mut Serializer<'_>) {
        serialize_seq(s, self);
    }
}

impl<T: Deserialize> Deserialize for std::collections::VecDeque<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_array()
            .ok_or_else(|| Error::custom("expected an array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, s: &mut Serializer<'_>) {
        serialize_seq(s, self);
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self, s: &mut Serializer<'_>) {
                let mut a = s.array();
                $(a.element(&self.$idx);)+
                a.end();
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let arr = value
                    .as_array()
                    .ok_or_else(|| Error::custom("expected a tuple array"))?;
                let expected = [$($idx),+].len();
                if arr.len() != expected {
                    return Err(Error::custom("tuple arity mismatch"));
                }
                Ok(($($name::from_value(&arr[$idx])?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize(&self, s: &mut Serializer<'_>) {
        serialize_map(s, self);
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_object()
            .ok_or_else(|| Error::custom("expected an object"))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
            .collect()
    }
}

impl<V: Serialize, S> Serialize for HashMap<String, V, S> {
    fn serialize(&self, s: &mut Serializer<'_>) {
        let mut entries: Vec<_> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        serialize_map(s, entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compact<T: Serialize + ?Sized>(value: &T) -> String {
        let mut out = String::new();
        value.serialize(&mut Serializer::compact(&mut out));
        out
    }

    fn pretty<T: Serialize + ?Sized>(value: &T) -> String {
        let mut out = String::new();
        value.serialize(&mut Serializer::pretty(&mut out));
        out
    }

    #[test]
    fn primitives_render() {
        assert_eq!(compact(&42u64), "42");
        assert_eq!(compact(&u64::MAX), "18446744073709551615");
        assert_eq!(compact(&i64::MIN), "-9223372036854775808");
        assert_eq!(compact(&i64::MAX), "9223372036854775807");
        assert_eq!(compact(&0u64), "0");
        assert_eq!(compact(&0i64), "0");
        assert_eq!(compact(&-3i32), "-3");
        assert_eq!(compact(&10u32), "10");
        assert_eq!(compact(&1.5f64), "1.5");
        assert_eq!(compact(&1.0f64), "1.0");
        assert_eq!(compact(&-0.0f64), "-0.0");
        assert_eq!(compact(&1e21f64), "1000000000000000000000.0");
        assert_eq!(compact(&1e-7f64), "0.0000001");
        assert_eq!(compact(&f64::NAN), "null");
        assert_eq!(compact(&f64::NEG_INFINITY), "null");
        assert_eq!(compact(&true), "true");
        assert_eq!(compact(&vec![1.0f64, 2.5]), "[1.0,2.5]");
        assert_eq!(compact(&(1usize, 2.5f64)), "[1,2.5]");
        assert_eq!(compact(&Option::<u32>::None), "null");
        assert_eq!(compact(&'x'), "\"x\"");
        assert_eq!(
            compact("a\"b\\c\n\u{1}\u{1F600}"),
            "\"a\\\"b\\\\c\\n\\u0001\u{1F600}\""
        );
    }

    #[test]
    fn maps_render_sorted_and_pretty_indents() {
        let mut m = HashMap::new();
        m.insert("b".to_string(), vec![1u8]);
        m.insert("a".to_string(), Vec::new());
        assert_eq!(compact(&m), r#"{"a":[],"b":[1]}"#);
        assert_eq!(pretty(&m), "{\n  \"a\": [],\n  \"b\": [\n    1\n  ]\n}");
        assert_eq!(pretty(&BTreeMap::<String, u8>::new()), "{}");
    }

    #[test]
    fn primitives_deserialize() {
        assert_eq!(u64::from_value(&Value::U64(42)).unwrap(), 42);
        assert_eq!(i32::from_value(&Value::I64(-3)).unwrap(), -3);
        assert_eq!(f64::from_value(&Value::F64(1.5)).unwrap(), 1.5);
        assert!(f64::from_value(&Value::Null).unwrap().is_nan());
        assert!(bool::from_value(&Value::Bool(true)).unwrap());
        let arr = Value::Array(vec![Value::U64(1), Value::F64(2.5)]);
        assert_eq!(<(usize, f64)>::from_value(&arr).unwrap(), (1, 2.5));
        assert_eq!(Option::<u32>::from_value(&Value::Null).unwrap(), None);
    }

    #[test]
    fn value_indexing_and_eq() {
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), Value::U64(1));
        let v = Value::Object(m);
        assert_eq!(v["a"], 1);
        assert!(v["missing"].is_null());
        assert_eq!(Value::String("x".into()), "x");
    }
}
