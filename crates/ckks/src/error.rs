//! Error type for the CKKS crate.

use std::error::Error;
use std::fmt;

/// Errors produced by CKKS operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkksError {
    /// Parameter validation failed.
    InvalidParams(String),
    /// Too many values for the available slot count.
    TooManySlots {
        /// Values supplied.
        given: usize,
        /// Slots available (`N/2`).
        slots: usize,
    },
    /// An operation needed more multiplicative depth than remains.
    LevelExhausted,
    /// Operand levels or scales are incompatible.
    Mismatch(String),
    /// A rotation key for the requested step is missing.
    MissingRotationKey(i64),
    /// A slot value is not finite, or a scaled coefficient does not fit the
    /// centred range of the target level's modulus (nor `±2^126`).
    Unencodable(String),
}

impl fmt::Display for CkksError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkksError::InvalidParams(msg) => write!(f, "invalid parameters: {msg}"),
            CkksError::TooManySlots { given, slots } => {
                write!(f, "cannot encode {given} values into {slots} slots")
            }
            CkksError::LevelExhausted => write!(f, "multiplicative level exhausted"),
            CkksError::Mismatch(msg) => write!(f, "operand mismatch: {msg}"),
            CkksError::MissingRotationKey(r) => {
                write!(f, "no rotation key generated for step {r}")
            }
            CkksError::Unencodable(msg) => write!(f, "cannot encode: {msg}"),
        }
    }
}

impl Error for CkksError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_lowercase_and_informative() {
        let e = CkksError::TooManySlots {
            given: 10,
            slots: 4,
        };
        assert_eq!(e.to_string(), "cannot encode 10 values into 4 slots");
        assert!(CkksError::LevelExhausted.to_string().contains("level"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CkksError>();
    }
}
