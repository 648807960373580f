//! SQL value model with MySQL-flavoured comparison and coercion semantics.
//!
//! The ground-truth evaluator and the simulated engine both operate on
//! [`Value`]. The semantics implemented here are the *correct* ones; the
//! engine's fault-injection layer deliberately perturbs them in specific
//! physical operators to model real optimizer bugs (e.g. treating `0` and
//! `-0` as different hash keys, or losing precision by routing a
//! varchar→bigint comparison through `double`).

use std::cmp::Ordering;
use std::fmt;

/// Fixed-point decimal: `mantissa * 10^(-scale)`.
///
/// MySQL `DECIMAL` columns are exact; several of the paper's bugs hinge on
/// the difference between exact decimal comparison and a lossy conversion to
/// `double`, so we keep an exact representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Decimal {
    pub mantissa: i128,
    pub scale: u8,
}

impl Decimal {
    pub fn new(mantissa: i128, scale: u8) -> Self {
        Decimal { mantissa, scale }
    }

    /// Lossy conversion to double, used by coercion paths.
    pub(crate) fn to_f64(self) -> f64 {
        self.mantissa as f64 / 10f64.powi(self.scale as i32)
    }

    /// Rescale both operands to a common scale and compare exactly.
    pub(crate) fn cmp_exact(self, other: Decimal) -> Ordering {
        let scale = self.scale.max(other.scale);
        let a = self.mantissa * 10i128.pow((scale - self.scale) as u32);
        let b = other.mantissa * 10i128.pow((scale - other.scale) as u32);
        a.cmp(&b)
    }

    /// Normalize away trailing zeros so `1.50` and `1.5` hash identically.
    pub fn normalized(mut self) -> Self {
        while self.scale > 0 && self.mantissa % 10 == 0 {
            self.mantissa /= 10;
            self.scale -= 1;
        }
        self
    }
}

impl fmt::Display for Decimal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.scale == 0 {
            return write!(f, "{}", self.mantissa);
        }
        let sign = if self.mantissa < 0 { "-" } else { "" };
        let abs = self.mantissa.unsigned_abs();
        let pow = 10u128.pow(self.scale as u32);
        let int = abs / pow;
        let frac = abs % pow;
        write!(f, "{sign}{int}.{frac:0width$}", width = self.scale as usize)
    }
}

/// A single SQL value.
///
/// `Int` covers TINYINT..BIGINT (the column type carries the width);
/// `UInt` covers the unsigned/zerofill variants. Strings are split into
/// `Varchar` and `Text` because several engines treat them differently in
/// join key handling (TEXT keys go through the "long key" path).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    UInt(u64),
    Float(f32),
    Double(f64),
    Decimal(Decimal),
    Varchar(String),
    Text(String),
    /// Days since 1970-01-01, date-typed.
    Date(i32),
}

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn str(s: impl Into<String>) -> Value {
        Value::Varchar(s.into())
    }

    pub fn text(s: impl Into<String>) -> Value {
        Value::Text(s.into())
    }

    /// A short tag used by embeddings / debugging.
    pub fn type_tag(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::UInt(_) => "uint",
            Value::Float(_) => "float",
            Value::Double(_) => "double",
            Value::Decimal(_) => "decimal",
            Value::Varchar(_) => "varchar",
            Value::Text(_) => "text",
            Value::Date(_) => "date",
        }
    }

    /// Numeric interpretation following MySQL's string→number coercion:
    /// a leading numeric prefix parses, anything else is 0.
    pub fn as_f64_lossy(&self) -> Option<f64> {
        match self {
            Value::Null => None,
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            Value::Float(f) => Some(*f as f64),
            Value::Double(d) => Some(*d),
            Value::Decimal(d) => Some(d.to_f64()),
            Value::Varchar(s) | Value::Text(s) => Some(parse_numeric_prefix(s)),
            Value::Date(d) => Some(*d as f64),
        }
    }

    /// Exact integer interpretation when the value is integral.
    pub fn as_i128_exact(&self) -> Option<i128> {
        match self {
            Value::Int(i) => Some(*i as i128),
            Value::UInt(u) => Some(*u as i128),
            Value::Bool(b) => Some(*b as i128),
            Value::Date(d) => Some(*d as i128),
            Value::Decimal(d) if d.scale == 0 => Some(d.mantissa),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Varchar(s) | Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Truthiness for `WHERE` predicates: NULL → None (unknown),
    /// numbers → non-zero, strings → numeric prefix non-zero.
    pub(crate) fn truthiness(&self) -> Option<bool> {
        match self {
            Value::Null => None,
            Value::Bool(b) => Some(*b),
            _ => self.as_f64_lossy().map(|f| f != 0.0),
        }
    }
}

/// Parse a numeric prefix the way MySQL coerces strings in numeric context:
/// `"12abc"` → 12, `"abc"` → 0, `"-3.5x"` → -3.5.
pub(crate) fn parse_numeric_prefix(s: &str) -> f64 {
    let t = s.trim_start();
    let mut end = 0usize;
    let bytes = t.as_bytes();
    let mut seen_digit = false;
    let mut seen_dot = false;
    let mut seen_exp = false;
    while end < bytes.len() {
        let c = bytes[end] as char;
        let ok = match c {
            '0'..='9' => {
                seen_digit = true;
                true
            }
            '+' | '-' => end == 0 || matches!(bytes[end - 1] as char, 'e' | 'E'),
            '.' if !seen_dot && !seen_exp => {
                seen_dot = true;
                true
            }
            'e' | 'E' if seen_digit && !seen_exp => {
                seen_exp = true;
                true
            }
            _ => false,
        };
        if !ok {
            break;
        }
        end += 1;
    }
    if !seen_digit {
        return 0.0;
    }
    t[..end].parse::<f64>().unwrap_or(0.0)
}

/// Three-valued SQL comparison result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlCmp {
    Unknown,
    Ordering(Ordering),
}

impl SqlCmp {
    pub(crate) fn is_eq(self) -> Option<bool> {
        match self {
            SqlCmp::Unknown => None,
            SqlCmp::Ordering(o) => Some(o == Ordering::Equal),
        }
    }
}

/// Correct SQL comparison with MySQL-style coercion.
///
/// * NULL compared with anything is Unknown.
/// * Numeric vs numeric: exact when both are exact integers/decimals,
///   otherwise via double (so `0.0 == -0.0` and `0 == -0`).
/// * String vs string: binary-ish collation, but trailing-space insensitive
///   (PAD SPACE collations), case-insensitive like the default `_ci`
///   collations.
/// * Mixed string/number: the string is coerced to a number.
pub fn sql_compare(a: &Value, b: &Value) -> SqlCmp {
    use Value::*;
    if a.is_null() || b.is_null() {
        return SqlCmp::Unknown;
    }
    // exact integer fast path
    if let (Some(x), Some(y)) = (a.as_i128_exact(), b.as_i128_exact()) {
        return SqlCmp::Ordering(x.cmp(&y));
    }
    // exact decimal vs integer/decimal
    if let (Decimal(x), Decimal(y)) = (a, b) {
        return SqlCmp::Ordering(x.cmp_exact(*y));
    }
    match (a, b) {
        (Varchar(x), Varchar(y))
        | (Varchar(x), Text(y))
        | (Text(x), Varchar(y))
        | (Text(x), Text(y)) => SqlCmp::Ordering(collate_cmp(x, y)),
        _ => {
            let (x, y) = (a.as_f64_lossy(), b.as_f64_lossy());
            match (x, y) {
                (Some(x), Some(y)) => SqlCmp::Ordering(total_f64(x, y)),
                _ => SqlCmp::Unknown,
            }
        }
    }
}

/// NULL-safe equality (MySQL `<=>`): NULL <=> NULL is true.
pub fn null_safe_eq(a: &Value, b: &Value) -> bool {
    match (a.is_null(), b.is_null()) {
        (true, true) => true,
        (true, false) | (false, true) => false,
        _ => sql_compare(a, b).is_eq().unwrap_or(false),
    }
}

/// Case-insensitive, trailing-space-insensitive string collation
/// (models the default `utf8mb4_0900_ai_ci` behaviour closely enough).
pub fn collate_cmp(a: &str, b: &str) -> Ordering {
    let a = a.trim_end_matches(' ');
    let b = b.trim_end_matches(' ');
    let ai = a.chars().flat_map(|c| c.to_lowercase());
    let bi = b.chars().flat_map(|c| c.to_lowercase());
    ai.cmp(bi)
}

/// Total order over doubles that collapses `-0.0`/`0.0` and sorts NaN last.
/// Correct engines must compare `0` and `-0` as equal; one of the injected
/// faults replaces this with a bit-pattern comparison.
pub(crate) fn total_f64(a: f64, b: f64) -> Ordering {
    if a == b {
        return Ordering::Equal; // also collapses 0.0 / -0.0
    }
    match a.partial_cmp(&b) {
        Some(o) => o,
        None => {
            // NaNs sort after everything, equal to each other.
            match (a.is_nan(), b.is_nan()) {
                (true, true) => Ordering::Equal,
                (true, false) => Ordering::Greater,
                (false, true) => Ordering::Less,
                (false, false) => unreachable!(),
            }
        }
    }
}

/// A key usable for hashing/grouping. Its equivalence classes are those of
/// [`sql_compare`] equality only on the column shapes [`ColClass::hash_exact`]
/// names — all strings, or all exact integers within ±2⁵³. Elsewhere the two
/// part ways: a string never keys like the number it coerces to, an integer
/// beyond 2⁵³ can equal a double it does not key like, and a `Decimal` with
/// a fractional part compares exactly (`Decimal::cmp_exact`) but keys
/// through the lossy `Decimal::to_f64`, so two different decimals can
/// share a key. Callers that must agree with `sql_compare` classify their
/// columns first (the engine's `hash_equivalent_keys` does).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum HashKey {
    Null,
    Int(i128),
    /// Bit pattern of a canonicalized double (−0 collapsed to +0, NaN canon).
    Double(u64),
    Str(String),
}

/// Canonical hash key under *correct* semantics.
pub fn hash_key(v: &Value) -> HashKey {
    match v {
        Value::Null => HashKey::Null,
        Value::Bool(b) => HashKey::Int(*b as i128),
        Value::Int(i) => HashKey::Int(*i as i128),
        Value::UInt(u) => HashKey::Int(*u as i128),
        Value::Date(d) => HashKey::Int(*d as i128),
        Value::Decimal(d) => {
            let n = d.normalized();
            if n.scale == 0 {
                HashKey::Int(n.mantissa)
            } else {
                HashKey::Double(canon_f64_bits(n.to_f64()))
            }
        }
        Value::Float(f) => float_key(*f as f64),
        Value::Double(f) => float_key(*f),
        Value::Varchar(s) | Value::Text(s) => HashKey::Str(
            // Char-wise folding, exactly like `collate_cmp` (and the binary
            // `KeyBuf` encoder): `str::to_lowercase`'s context-sensitive
            // mappings (word-final Greek sigma) would make the hash key
            // disagree with the comparison it must mirror.
            s.trim_end_matches(' ')
                .chars()
                .flat_map(|c| c.to_lowercase())
                .collect(),
        ),
    }
}

fn float_key(f: f64) -> HashKey {
    if f.fract() == 0.0 && f.abs() < i64::MAX as f64 {
        HashKey::Int(f as i128)
    } else {
        HashKey::Double(canon_f64_bits(f))
    }
}

/// Collapse -0.0 into +0.0 and all NaNs into one bit pattern.
pub(crate) fn canon_f64_bits(f: f64) -> u64 {
    if f == 0.0 {
        0u64
    } else if f.is_nan() {
        f64::NAN.to_bits()
    } else {
        f.to_bits()
    }
}

/// What the non-NULL values of one column (or of several columns that meet
/// in a comparison) have in common — as much as decides which hashable key
/// is faithful to [`sql_compare`] equality on them. Ordered by how little is
/// known: [`join`](Self::join) only ever moves down this list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColClass {
    /// No non-NULL value.
    Empty,
    /// Only strings: equality is [`collate_cmp`], which the folded,
    /// right-trimmed string reproduces exactly.
    Str,
    /// Only exact integers within ±2⁵³: equality is exact, and both
    /// [`hash_key`] and the conversion to double are injective on them.
    SmallInt,
    /// Anything else whose [`Value::as_f64_lossy`] is equal whenever
    /// `sql_compare` says equal: floats, large integers, decimals, and
    /// strings meeting numbers (two equal strings share a numeric prefix).
    /// The converse fails, so the double is a bucket key, not a verdict.
    Num,
    /// Holds a fractional `Decimal` too wide for `Decimal::to_f64` to be
    /// the correctly rounded value (mantissa beyond 2⁵³ or scale beyond 15):
    /// `1.50` and `1.5` at that width may convert differently while
    /// comparing equal, so no key at all is known to be faithful.
    Opaque,
}

impl ColClass {
    const EXACT_F64_INT: u128 = 1 << 53;

    /// The class of a single value.
    pub fn of(v: &Value) -> ColClass {
        match v {
            Value::Null => ColClass::Empty,
            Value::Varchar(_) | Value::Text(_) => ColClass::Str,
            Value::Decimal(d)
                if d.scale > 0
                    && (d.mantissa.unsigned_abs() > Self::EXACT_F64_INT || d.scale > 15) =>
            {
                ColClass::Opaque
            }
            _ => match v.as_i128_exact() {
                Some(i) if i.unsigned_abs() <= Self::EXACT_F64_INT => ColClass::SmallInt,
                _ => ColClass::Num,
            },
        }
    }

    /// The class of the union of two groups of values.
    pub fn join(self, other: ColClass) -> ColClass {
        use ColClass::*;
        match (self, other) {
            (a, b) if a == b => a,
            (Empty, x) | (x, Empty) => x,
            (Opaque, _) | (_, Opaque) => Opaque,
            _ => Num,
        }
    }

    /// The class of all the values of a column.
    pub fn of_all<'a>(values: impl IntoIterator<Item = &'a Value>) -> ColClass {
        values
            .into_iter()
            .fold(ColClass::Empty, |c, v| c.join(ColClass::of(v)))
    }

    /// Does [`hash_key`] equality coincide with `sql_compare` equality on
    /// values of this class?
    pub fn hash_exact(self) -> bool {
        matches!(self, ColClass::Empty | ColClass::Str | ColClass::SmallInt)
    }
}

/// A compact, reusable binary key buffer for hashing, grouping and
/// deduplication — the allocation-free replacement for the string-concat
/// keys the executors used to build per row.
///
/// A key is a sequence of tagged segments, one per encoded value. Every
/// segment is either fixed-width (ints, doubles) or length-prefixed
/// (strings), so concatenation is injective: two key sequences encode to the
/// same bytes iff they are segment-wise equal. (The old `"S:{s}|"` string
/// encoding could collide when a value contained the separator; the binary
/// form cannot.)
///
/// Three encoding families share the buffer:
///
/// * [`push_canonical`](Self::push_canonical) — the [`hash_key`] equivalence
///   (join keys): `0 == -0`, `1 == 1.0`, strings case-folded and
///   trailing-space-trimmed.
/// * [`push_group`](Self::push_group) — the `(type_tag, Display)`
///   equivalence used by GROUP BY and DISTINCT, where `Int(1)` and
///   `Double(1.0)` stay distinct.
/// * [`push_coarse`](Self::push_coarse) — the result judge's bucket key: a
///   coarsening of [`result_value_eq`] per [`ColClass`].
///
/// The executor's fault interception composes its own segments out of the
/// low-level pushers (`push_f64_bits`, `push_str_folded`, `push_str_raw`),
/// so e.g. a NULL key under `HashJoinNullMatchesEmpty` encodes bit-for-bit
/// like the canonical empty string and collides with it — exactly the rows
/// the old `"S:|"` text encoding made collide.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct KeyBuf {
    bytes: Vec<u8>,
}

impl KeyBuf {
    /// Canonical NULL (only used by callers that key NULLs at all).
    pub const TAG_NULL: u8 = b'N';
    /// Canonical integer family (i128 payload).
    pub const TAG_INT: u8 = b'I';
    /// Canonical double (canonicalized bit pattern payload).
    pub const TAG_DOUBLE: u8 = b'F';
    /// Lossy varchar-via-double fault segment.
    pub const TAG_LOSSY_DOUBLE: u8 = b'D';
    /// String (length-prefixed payload).
    pub(crate) const TAG_STR: u8 = b'S';

    pub fn new() -> KeyBuf {
        KeyBuf::default()
    }

    pub fn clear(&mut self) {
        self.bytes.clear();
    }

    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Canonical NULL segment.
    pub fn push_null(&mut self) {
        self.bytes.push(Self::TAG_NULL);
    }

    /// Canonical integer segment (the encoding [`push_canonical`]
    /// (Self::push_canonical) emits for the integer family).
    pub fn push_int(&mut self, i: i128) {
        self.bytes.push(Self::TAG_INT);
        self.bytes.extend_from_slice(&i.to_le_bytes());
    }

    /// A double segment whose equality matches `Display` equality: distinct
    /// finite doubles have distinct shortest round-trip renderings, `0.0`
    /// and `-0.0` render differently, and every NaN renders `"NaN"` — so the
    /// payload is the bit pattern with all NaNs collapsed to one.
    pub fn push_f64_bits(&mut self, tag: u8, f: f64) {
        self.bytes.push(tag);
        let bits = if f.is_nan() {
            f64::NAN.to_bits()
        } else {
            f.to_bits()
        };
        self.bytes.extend_from_slice(&bits.to_le_bytes());
    }

    /// A raw string segment (no case folding — the dictionary-truncation
    /// fault clips bytes without folding, like the text encoding did).
    pub fn push_str_raw(&mut self, s: &str) {
        self.bytes.push(Self::TAG_STR);
        self.bytes
            .extend_from_slice(&(s.len() as u32).to_le_bytes());
        self.bytes.extend_from_slice(s.as_bytes());
    }

    /// A canonical string segment: trailing spaces trimmed, case folded —
    /// the same equivalence [`hash_key`] applies, without allocating the
    /// intermediate `String`.
    pub fn push_str_folded(&mut self, s: &str) {
        self.bytes.push(Self::TAG_STR);
        let len_at = self.bytes.len();
        self.bytes.extend_from_slice(&[0; 4]);
        for c in s
            .trim_end_matches(' ')
            .chars()
            .flat_map(|c| c.to_lowercase())
        {
            let mut utf8 = [0u8; 4];
            self.bytes
                .extend_from_slice(c.encode_utf8(&mut utf8).as_bytes());
        }
        let n = (self.bytes.len() - len_at - 4) as u32;
        self.bytes[len_at..len_at + 4].copy_from_slice(&n.to_le_bytes());
    }

    /// Canonical segment under *correct* join-key semantics: equality of the
    /// pushed segments is exactly equality of [`hash_key`] values.
    pub fn push_canonical(&mut self, v: &Value) {
        match v {
            Value::Varchar(s) | Value::Text(s) => self.push_str_folded(s),
            other => match hash_key(other) {
                HashKey::Null => self.bytes.push(Self::TAG_NULL),
                HashKey::Int(i) => {
                    self.bytes.push(Self::TAG_INT);
                    self.bytes.extend_from_slice(&i.to_le_bytes());
                }
                HashKey::Double(b) => {
                    self.bytes.push(Self::TAG_DOUBLE);
                    self.bytes.extend_from_slice(&b.to_le_bytes());
                }
                HashKey::Str(_) => unreachable!("strings handled above"),
            },
        }
    }

    /// Result-cell segment for a column of class `class` (the join over
    /// every value that meets in the column): a *coarsening* of
    /// [`result_value_eq`] — two cells that compare equal push equal
    /// segments, so rows can be bucketed by it and only bucket-mates need
    /// the real comparison. Neither other family will do: `push_group` is
    /// finer than the comparison (`1.50`/`1.5`, `'Tom'`/`'tom '`,
    /// `0.0`/`-0.0` part ways) and `push_canonical` is unfaithful outside
    /// [`ColClass::hash_exact`] columns.
    pub fn push_coarse(&mut self, v: &Value, class: ColClass) {
        match (v, class) {
            (Value::Null, _) => self.push_null(),
            (_, ColClass::Opaque) => {}
            (Value::Varchar(s) | Value::Text(s), ColClass::Str) => self.push_str_folded(s),
            _ => {
                let f = v.as_f64_lossy().expect("only NULL has no numeric reading");
                self.bytes.push(Self::TAG_DOUBLE);
                self.bytes
                    .extend_from_slice(&canon_f64_bits(f).to_le_bytes());
            }
        }
    }

    /// Grouping/DISTINCT segment: equality of the pushed segments is exactly
    /// equality of the `(type_tag, Display)` pair the executors used to
    /// format per row — `Int(1)`, `Double(1.0)` and `'1'` all stay distinct.
    pub fn push_group(&mut self, v: &Value) {
        // One tag byte per variant keeps different types distinct even when
        // their payload bytes coincide.
        match v {
            Value::Null => self.bytes.push(0x80),
            Value::Bool(b) => self.bytes.extend_from_slice(&[0x81, *b as u8]),
            Value::Int(i) => {
                self.bytes.push(0x82);
                self.bytes.extend_from_slice(&i.to_le_bytes());
            }
            Value::UInt(u) => {
                self.bytes.push(0x83);
                self.bytes.extend_from_slice(&u.to_le_bytes());
            }
            Value::Float(f) => {
                self.bytes.push(0x84);
                let bits = if f.is_nan() {
                    f32::NAN.to_bits()
                } else {
                    f.to_bits()
                };
                self.bytes.extend_from_slice(&bits.to_le_bytes());
            }
            Value::Double(f) => self.push_f64_bits(0x85, *f),
            Value::Decimal(d) => {
                // `(mantissa, scale)` ↔ rendered decimal text is a bijection
                // ("1.5" and "1.50" are different pairs and different texts).
                self.bytes.push(0x86);
                self.bytes.extend_from_slice(&d.mantissa.to_le_bytes());
                self.bytes.push(d.scale);
            }
            Value::Varchar(s) => {
                self.bytes.push(0x87);
                self.bytes
                    .extend_from_slice(&(s.len() as u32).to_le_bytes());
                self.bytes.extend_from_slice(s.as_bytes());
            }
            Value::Text(s) => {
                self.bytes.push(0x88);
                self.bytes
                    .extend_from_slice(&(s.len() as u32).to_le_bytes());
                self.bytes.extend_from_slice(s.as_bytes());
            }
            Value::Date(d) => {
                self.bytes.push(0x89);
                self.bytes.extend_from_slice(&d.to_le_bytes());
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Int(i) => write!(f, "{i}"),
            Value::UInt(u) => write!(f, "{u}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Double(x) => write!(f, "{x}"),
            Value::Decimal(d) => write!(f, "{d}"),
            Value::Varchar(s) | Value::Text(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Value::Date(d) => write!(f, "DATE({d})"),
        }
    }
}

/// Equality of values as *result-set members* (not predicate equality):
/// NULL equals NULL here, because two result sets containing a NULL cell in
/// the same position are the same result set.
pub fn result_value_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Null, _) | (_, Value::Null) => false,
        _ => sql_compare(a, b).is_eq().unwrap_or(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(sql_compare(&Value::Null, &Value::Int(1)), SqlCmp::Unknown);
        assert_eq!(sql_compare(&Value::Int(1), &Value::Null), SqlCmp::Unknown);
        assert_eq!(sql_compare(&Value::Null, &Value::Null), SqlCmp::Unknown);
    }

    #[test]
    fn null_safe_eq_matches_nulls() {
        assert!(null_safe_eq(&Value::Null, &Value::Null));
        assert!(!null_safe_eq(&Value::Null, &Value::Int(0)));
        assert!(null_safe_eq(&Value::Int(3), &Value::Int(3)));
    }

    #[test]
    fn zero_and_negative_zero_are_equal() {
        assert_eq!(
            sql_compare(&Value::Double(0.0), &Value::Double(-0.0)).is_eq(),
            Some(true)
        );
        assert_eq!(
            hash_key(&Value::Double(0.0)),
            hash_key(&Value::Double(-0.0))
        );
        assert_eq!(hash_key(&Value::Int(0)), hash_key(&Value::Double(-0.0)));
    }

    #[test]
    fn string_number_coercion() {
        assert_eq!(parse_numeric_prefix("2000-09-06"), 2000.0);
        assert_eq!(parse_numeric_prefix("abc"), 0.0);
        assert_eq!(parse_numeric_prefix("  -3.5x"), -3.5);
        assert_eq!(
            sql_compare(&Value::str("12abc"), &Value::Int(12)).is_eq(),
            Some(true)
        );
    }

    #[test]
    fn string_collation_is_pad_and_case_insensitive() {
        assert_eq!(collate_cmp("abc  ", "ABC"), Ordering::Equal);
        assert_eq!(collate_cmp("abc", "abd"), Ordering::Less);
        assert_eq!(
            sql_compare(&Value::str("Tom"), &Value::str("tom ")).is_eq(),
            Some(true)
        );
    }

    #[test]
    fn decimal_exact_comparison_and_display() {
        let a = Decimal::new(1500, 2); // 15.00
        let b = Decimal::new(15, 0);
        assert_eq!(a.cmp_exact(b), Ordering::Equal);
        assert_eq!(a.to_string(), "15.00");
        assert_eq!(Decimal::new(-105, 1).to_string(), "-10.5");
        assert_eq!(hash_key(&Value::Decimal(a)), hash_key(&Value::Int(15)));
    }

    #[test]
    fn fractional_decimals_can_differ_and_share_a_hash_key() {
        // 0.1 and 0.1 + 1e-21: different under the exact comparison, the
        // same double, hence the same hash key.
        let a = Value::Decimal(Decimal::new(1, 1));
        let b = Value::Decimal(Decimal::new(100_000_000_000_000_000_001, 21));
        assert_eq!(sql_compare(&a, &b).is_eq(), Some(false));
        assert_eq!(hash_key(&a), hash_key(&b));
        assert!(!ColClass::of(&b).hash_exact());
    }

    #[test]
    fn column_classes_join_toward_less_knowledge() {
        use ColClass::*;
        assert_eq!(ColClass::of_all([]), Empty);
        assert_eq!(ColClass::of_all([&Value::Null, &Value::str("a")]), Str);
        assert_eq!(
            ColClass::of_all([&Value::Int(1), &Value::UInt(2)]),
            SmallInt
        );
        assert_eq!(ColClass::of_all([&Value::Int(1), &Value::str("1")]), Num);
        assert_eq!(ColClass::of(&Value::Int(i64::MAX)), Num);
        assert_eq!(ColClass::of(&Value::Decimal(Decimal::new(150, 2))), Num);
        let wide = Value::Decimal(Decimal::new(1 << 60, 1));
        assert_eq!(ColClass::of_all([&Value::str("a"), &wide]), Opaque);
        assert_eq!(Opaque.join(Num), Opaque);
    }

    #[test]
    fn coarse_segments_agree_wherever_result_cells_do() {
        let key = |v: &Value, class| {
            let mut k = KeyBuf::new();
            k.push_coarse(v, class);
            k
        };
        let pairs = [
            (Value::str("Tom"), Value::text("tom ")),
            (Value::str("12abc"), Value::Int(12)),
            (Value::Double(0.0), Value::Double(-0.0)),
            (Value::Double(f64::NAN), Value::Float(f32::NAN)),
            (Value::Int(7), Value::UInt(7)),
            (
                Value::Decimal(Decimal::new(150, 2)),
                Value::Decimal(Decimal::new(15, 1)),
            ),
            (
                Value::Int(9_007_199_254_740_993),
                Value::Double(9.007199254740992e15),
            ),
            (Value::Null, Value::Null),
        ];
        for (a, b) in &pairs {
            assert!(result_value_eq(a, b), "{a} vs {b}");
            let class = ColClass::of(a).join(ColClass::of(b));
            assert_eq!(key(a, class), key(b, class), "{a} vs {b}");
        }
        // NULL never shares a segment with the empty string, in any class.
        for class in [ColClass::Str, ColClass::Num] {
            assert_ne!(key(&Value::Null, class), key(&Value::str(""), class));
        }
    }

    #[test]
    fn big_integers_compare_exactly_not_via_double() {
        // Adjacent i64 values that collapse when routed through f64.
        let a = Value::Int(9_007_199_254_740_993);
        let b = Value::Int(9_007_199_254_740_992);
        assert_eq!(sql_compare(&a, &b).is_eq(), Some(false));
    }

    #[test]
    fn uint_vs_int_comparison() {
        assert_eq!(
            sql_compare(&Value::UInt(65535), &Value::Int(65535)).is_eq(),
            Some(true)
        );
        assert_eq!(
            sql_compare(&Value::UInt(1), &Value::Int(-1)).is_eq(),
            Some(false)
        );
    }

    #[test]
    fn truthiness() {
        assert_eq!(Value::Null.truthiness(), None);
        assert_eq!(Value::Int(0).truthiness(), Some(false));
        assert_eq!(Value::str("1x").truthiness(), Some(true));
        assert_eq!(Value::str("x").truthiness(), Some(false));
    }

    #[test]
    fn result_value_eq_treats_null_as_equal() {
        assert!(result_value_eq(&Value::Null, &Value::Null));
        assert!(!result_value_eq(&Value::Null, &Value::Int(0)));
    }

    #[test]
    fn display_round_trip_escaping() {
        assert_eq!(Value::str("it's").to_string(), "'it''s'");
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}
