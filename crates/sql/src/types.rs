//! Column type model, type names as rendered in `CREATE TABLE`, and the
//! boundary values used by the noise-injection module (§3.2 of the paper:
//! "for integer value and char(10) type, we replace the value with 65535 and
//! 'ZZZZZZZZZZ'").

use crate::value::{Decimal, Value};
use std::fmt;

/// SQL column types supported by the wide-table generator and the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    TinyInt {
        unsigned: bool,
    },
    SmallInt {
        unsigned: bool,
    },
    MediumInt {
        unsigned: bool,
    },
    Int {
        unsigned: bool,
    },
    BigInt {
        unsigned: bool,
    },
    /// `DECIMAL(precision, scale)`, optionally ZEROFILL (which implies
    /// unsigned display semantics in MySQL).
    Decimal {
        precision: u8,
        scale: u8,
        zerofill: bool,
    },
    Float,
    Double,
    /// `VARCHAR(n)`
    Varchar(u16),
    /// `CHAR(n)` — padded, but we model it as a string type.
    Char(u16),
    Text,
    Date,
    Bool,
}

impl ColumnType {
    pub fn is_integer(&self) -> bool {
        matches!(
            self,
            ColumnType::TinyInt { .. }
                | ColumnType::SmallInt { .. }
                | ColumnType::MediumInt { .. }
                | ColumnType::Int { .. }
                | ColumnType::BigInt { .. }
        )
    }

    pub fn is_numeric(&self) -> bool {
        self.is_integer()
            || matches!(
                self,
                ColumnType::Decimal { .. } | ColumnType::Float | ColumnType::Double
            )
    }

    pub fn is_string(&self) -> bool {
        matches!(
            self,
            ColumnType::Varchar(_) | ColumnType::Char(_) | ColumnType::Text
        )
    }

    /// Label used for column vertices of the plan-iterative graph
    /// ("column vertex with label *type*", §4).
    pub fn graph_label(&self) -> &'static str {
        match self {
            ColumnType::TinyInt { .. } => "tinyint",
            ColumnType::SmallInt { .. } => "smallint",
            ColumnType::MediumInt { .. } => "mediumint",
            ColumnType::Int { .. } => "int",
            ColumnType::BigInt { .. } => "bigint",
            ColumnType::Decimal { .. } => "decimal",
            ColumnType::Float => "float",
            ColumnType::Double => "double",
            ColumnType::Varchar(_) => "varchar",
            ColumnType::Char(_) => "char",
            ColumnType::Text => "blob",
            ColumnType::Date => "date",
            ColumnType::Bool => "bool",
        }
    }

    /// The boundary value injected by the noise module for this type.
    pub fn boundary_value(&self) -> Value {
        match self {
            ColumnType::TinyInt { unsigned: true } => Value::UInt(255),
            ColumnType::TinyInt { unsigned: false } => Value::Int(127),
            ColumnType::SmallInt { unsigned: true } => Value::UInt(65_535),
            ColumnType::SmallInt { unsigned: false } => Value::Int(32_767),
            ColumnType::MediumInt { unsigned: true } => Value::UInt(16_777_215),
            ColumnType::MediumInt { unsigned: false } => Value::Int(8_388_607),
            ColumnType::Int { unsigned: true } => Value::UInt(4_294_967_295),
            ColumnType::Int { unsigned: false } => Value::Int(65_535),
            ColumnType::BigInt { unsigned: true } => Value::UInt(u64::MAX),
            ColumnType::BigInt { unsigned: false } => Value::Int(i64::MAX),
            ColumnType::Decimal { scale, .. } => Value::Decimal(Decimal::new(0, *scale)),
            ColumnType::Float => Value::Float(-0.0),
            ColumnType::Double => Value::Double(-0.0),
            ColumnType::Varchar(n) | ColumnType::Char(n) => {
                let len = (*n).clamp(1, 16) as usize;
                Value::Varchar("Z".repeat(len))
            }
            ColumnType::Text => Value::Text("Z".repeat(64)),
            ColumnType::Date => Value::Date(0),
            ColumnType::Bool => Value::Bool(false),
        }
    }

    /// A second, distinct boundary value (noise must stay unique, §3.2).
    pub fn alt_boundary_value(&self, salt: u64) -> Value {
        if self.is_integer() {
            return Value::Int(60_000 + (salt as i64 % 5_000));
        }
        match self {
            ColumnType::Decimal { scale, .. } => {
                Value::Decimal(Decimal::new(-(salt as i128 % 97) - 1, *scale))
            }
            ColumnType::Float => Value::Float(f32::MIN_POSITIVE * (1.0 + salt as f32)),
            ColumnType::Double => Value::Double(-0.0 - (salt as f64) * f64::EPSILON),
            ColumnType::Varchar(n) | ColumnType::Char(n) => {
                let len = (*n).clamp(2, 16) as usize;
                let mut s = "Y".repeat(len - 1);
                s.push(char::from(b'A' + (salt % 26) as u8));
                Value::Varchar(s)
            }
            ColumnType::Text => Value::Text(format!("{}{}", "Y".repeat(32), salt)),
            ColumnType::Date => Value::Date(-(salt as i32 % 10_000) - 1),
            ColumnType::Bool => Value::Bool(true),
            // integers handled by the early return above
            _ => unreachable!("integer types handled above"),
        }
    }

    /// Whether a value is type-compatible with this column (NULL always is).
    pub fn admits(&self, v: &Value) -> bool {
        match v {
            Value::Null => true,
            Value::Bool(_) => matches!(self, ColumnType::Bool) || self.is_integer(),
            Value::Int(_) | Value::UInt(_) => self.is_numeric(),
            Value::Float(_) | Value::Double(_) | Value::Decimal(_) => self.is_numeric(),
            Value::Varchar(_) | Value::Text(_) => self.is_string(),
            Value::Date(_) => matches!(self, ColumnType::Date) || self.is_numeric(),
        }
    }
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn u(unsigned: bool) -> &'static str {
            if unsigned {
                " unsigned"
            } else {
                ""
            }
        }
        match self {
            ColumnType::TinyInt { unsigned } => write!(f, "tinyint(3){}", u(*unsigned)),
            ColumnType::SmallInt { unsigned } => write!(f, "smallint(5){}", u(*unsigned)),
            ColumnType::MediumInt { unsigned } => write!(f, "mediumint(9){}", u(*unsigned)),
            ColumnType::Int { unsigned } => write!(f, "int(16){}", u(*unsigned)),
            ColumnType::BigInt { unsigned } => write!(f, "bigint(64){}", u(*unsigned)),
            ColumnType::Decimal {
                precision,
                scale,
                zerofill,
            } => {
                write!(f, "decimal({precision},{scale})")?;
                if *zerofill {
                    write!(f, " zerofill")?;
                }
                Ok(())
            }
            ColumnType::Float => write!(f, "float"),
            ColumnType::Double => write!(f, "double"),
            ColumnType::Varchar(n) => write!(f, "varchar({n})"),
            ColumnType::Char(n) => write!(f, "char({n})"),
            ColumnType::Text => write!(f, "text"),
            ColumnType::Date => write!(f, "date"),
            ColumnType::Bool => write!(f, "boolean"),
        }
    }
}

/// A named, typed column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: String,
    pub ty: ColumnType,
    pub nullable: bool,
}

impl ColumnDef {
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        ColumnDef {
            name: name.into(),
            ty,
            nullable: true,
        }
    }

    pub fn not_null(mut self) -> Self {
        self.nullable = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_names_match_mysql_style() {
        assert_eq!(
            ColumnType::BigInt { unsigned: false }.to_string(),
            "bigint(64)"
        );
        assert_eq!(ColumnType::Varchar(511).to_string(), "varchar(511)");
        assert_eq!(
            ColumnType::Decimal {
                precision: 10,
                scale: 0,
                zerofill: true
            }
            .to_string(),
            "decimal(10,0) zerofill"
        );
        assert_eq!(
            ColumnType::TinyInt { unsigned: true }.to_string(),
            "tinyint(3) unsigned"
        );
    }

    #[test]
    fn boundary_values_per_paper() {
        // "for integer value and char(10) type, we replace the value with
        // 65535 and 'ZZZZZZZZZZ'"
        assert_eq!(
            ColumnType::Int { unsigned: false }.boundary_value(),
            Value::Int(65_535)
        );
        match ColumnType::Char(10).boundary_value() {
            Value::Varchar(s) => assert_eq!(s, "ZZZZZZZZZZ"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn alt_boundary_values_are_distinct_from_primary() {
        for ty in [
            ColumnType::Int { unsigned: false },
            ColumnType::Varchar(10),
            ColumnType::Double,
            ColumnType::Date,
        ] {
            let a = ty.boundary_value();
            let b = ty.alt_boundary_value(7);
            assert_ne!(format!("{a}"), format!("{b}"), "{ty:?}");
        }
    }

    #[test]
    fn admits_checks_type_families() {
        let int = ColumnType::Int { unsigned: false };
        assert!(int.admits(&Value::Int(3)));
        assert!(int.admits(&Value::Null));
        assert!(!int.admits(&Value::str("x")));
        assert!(ColumnType::Varchar(10).admits(&Value::str("x")));
        assert!(!ColumnType::Varchar(10).admits(&Value::Int(3)));
    }

    #[test]
    fn graph_labels_cover_paper_examples() {
        // Figure 6 uses labels: int, bigint, char, blob.
        assert_eq!(ColumnType::Int { unsigned: false }.graph_label(), "int");
        assert_eq!(
            ColumnType::BigInt { unsigned: true }.graph_label(),
            "bigint"
        );
        assert_eq!(ColumnType::Char(10).graph_label(), "char");
        assert_eq!(ColumnType::Text.graph_label(), "blob");
    }
}
