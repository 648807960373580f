//! Binary row payloads: a `Vec<Value>` as the byte payload of one leaf cell.
//!
//! One tag byte per value, fixed-width little-endian numeric payloads,
//! length-prefixed strings — injective and strict, so a decoded row is
//! exactly the row that was stored or an error (never a near-miss). The
//! disk-vs-row answer-identity property rests on this round trip.

use tqs_sql::value::{Decimal, Value};

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_UINT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_DOUBLE: u8 = 5;
const TAG_DECIMAL: u8 = 6;
const TAG_VARCHAR: u8 = 7;
const TAG_TEXT: u8 = 8;
const TAG_DATE: u8 = 9;

/// Decoding failure (truncated payload, unknown tag, bad UTF-8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RowCodecError(pub String);

impl std::fmt::Display for RowCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "row codec: {}", self.0)
    }
}

/// Append the encoding of `row` to `out`.
pub(crate) fn encode_row(row: &[Value], out: &mut Vec<u8>) {
    out.extend_from_slice(&(row.len() as u16).to_le_bytes());
    for v in row {
        match v {
            Value::Null => out.push(TAG_NULL),
            Value::Bool(b) => {
                out.push(TAG_BOOL);
                out.push(u8::from(*b));
            }
            Value::Int(i) => {
                out.push(TAG_INT);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::UInt(u) => {
                out.push(TAG_UINT);
                out.extend_from_slice(&u.to_le_bytes());
            }
            Value::Float(f) => {
                out.push(TAG_FLOAT);
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Value::Double(d) => {
                out.push(TAG_DOUBLE);
                out.extend_from_slice(&d.to_bits().to_le_bytes());
            }
            Value::Decimal(d) => {
                out.push(TAG_DECIMAL);
                out.extend_from_slice(&d.mantissa.to_le_bytes());
                out.push(d.scale);
            }
            Value::Varchar(s) => {
                out.push(TAG_VARCHAR);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Text(s) => {
                out.push(TAG_TEXT);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Date(d) => {
                out.push(TAG_DATE);
                out.extend_from_slice(&d.to_le_bytes());
            }
        }
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], RowCodecError> {
        if self.at + n > self.bytes.len() {
            return Err(RowCodecError(format!(
                "payload truncated at byte {} (wanted {n} more of {})",
                self.at,
                self.bytes.len()
            )));
        }
        let s = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn byte(&mut self) -> Result<u8, RowCodecError> {
        Ok(self.take(1)?[0])
    }
}

fn array<const N: usize>(s: &[u8]) -> [u8; N] {
    let mut a = [0u8; N];
    a.copy_from_slice(s);
    a
}

/// Decode one row payload produced by [`encode_row`].
pub(crate) fn decode_row(bytes: &[u8]) -> Result<Vec<Value>, RowCodecError> {
    let mut cur = Cursor { bytes, at: 0 };
    let n = u16::from_le_bytes(array(cur.take(2)?)) as usize;
    let mut row = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = cur.byte()?;
        row.push(match tag {
            TAG_NULL => Value::Null,
            TAG_BOOL => Value::Bool(cur.byte()? != 0),
            TAG_INT => Value::Int(i64::from_le_bytes(array(cur.take(8)?))),
            TAG_UINT => Value::UInt(u64::from_le_bytes(array(cur.take(8)?))),
            TAG_FLOAT => Value::Float(f32::from_bits(u32::from_le_bytes(array(cur.take(4)?)))),
            TAG_DOUBLE => Value::Double(f64::from_bits(u64::from_le_bytes(array(cur.take(8)?)))),
            TAG_DECIMAL => {
                let mantissa = i128::from_le_bytes(array(cur.take(16)?));
                Value::Decimal(Decimal::new(mantissa, cur.byte()?))
            }
            TAG_VARCHAR | TAG_TEXT => {
                let len = u32::from_le_bytes(array(cur.take(4)?)) as usize;
                let s = std::str::from_utf8(cur.take(len)?)
                    .map_err(|_| RowCodecError("string payload is not UTF-8".into()))?
                    .to_string();
                if tag == TAG_VARCHAR {
                    Value::Varchar(s)
                } else {
                    Value::Text(s)
                }
            }
            TAG_DATE => Value::Date(i32::from_le_bytes(array(cur.take(4)?))),
            other => return Err(RowCodecError(format!("unknown value tag {other}"))),
        });
    }
    if cur.at != bytes.len() {
        return Err(RowCodecError(format!(
            "{} trailing bytes after the last value",
            bytes.len() - cur.at
        )));
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_row() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::UInt(u64::MAX),
            Value::Float(1.5e-3),
            Value::Double(std::f64::consts::PI),
            Value::Decimal(Decimal::new(-12345, 3)),
            Value::Varchar("a\"b\nc — ünïcode".into()),
            Value::Text(String::new()),
            Value::Date(19876),
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        let row = sample_row();
        let mut bytes = Vec::new();
        encode_row(&row, &mut bytes);
        assert_eq!(decode_row(&bytes).unwrap(), row);
        // empty row too
        let mut empty = Vec::new();
        encode_row(&[], &mut empty);
        assert_eq!(decode_row(&empty).unwrap(), Vec::<Value>::new());
    }

    #[test]
    fn truncation_is_an_error_at_every_length() {
        let row = sample_row();
        let mut bytes = Vec::new();
        encode_row(&row, &mut bytes);
        for cut in 0..bytes.len() {
            assert!(
                decode_row(&bytes[..cut]).is_err(),
                "decode accepted a {cut}-byte prefix"
            );
        }
        // ...and trailing garbage is too.
        bytes.push(0);
        assert!(decode_row(&bytes).is_err());
    }

    proptest! {
        #[test]
        fn decode_row_refuses_arbitrary_bytes_without_panicking(
            bytes in proptest::collection::vec(any::<u8>(), 0..96),
        ) {
            let _ = decode_row(&bytes);
        }

        #[test]
        fn decode_row_survives_any_single_byte_mutation(at in any::<usize>(), to in any::<u8>()) {
            let mut bytes = Vec::new();
            encode_row(&sample_row(), &mut bytes);
            let at = at % bytes.len();
            bytes[at] = to;
            let _ = decode_row(&bytes);
        }
    }

    #[test]
    fn float_bit_patterns_survive() {
        for v in [
            Value::Double(f64::NAN),
            Value::Double(-0.0),
            Value::Float(f32::INFINITY),
        ] {
            let mut bytes = Vec::new();
            encode_row(std::slice::from_ref(&v), &mut bytes);
            let back = decode_row(&bytes).unwrap();
            match (&v, &back[0]) {
                (Value::Double(a), Value::Double(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => panic!("variant changed"),
            }
        }
    }
}
