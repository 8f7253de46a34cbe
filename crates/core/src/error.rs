//! The unified error type of the engine and service layers.
//!
//! The seed code panicked on bad configurations (its multi-GPU cluster
//! asserted a non-zero device count) and validated requests with ad-hoc
//! `assert!`s.
//! A service front end cannot afford that: one malformed client request must
//! fail *that request*, not the process. Every fallible entry point of
//! `tensorfhe-core` now returns [`CoreError`].

use crate::service::RequestId;
use std::fmt;

/// Unified error type for engine construction and request handling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The builder or cluster configuration is unusable (zero devices,
    /// zero batch cap, …).
    InvalidConfig(String),
    /// A request is malformed (zero operation count, level above the
    /// parameter set's modulus chain, …).
    InvalidRequest(String),
    /// A request handle does not belong to this service instance.
    UnknownRequest(RequestId),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidConfig(why) => write!(f, "invalid configuration: {why}"),
            CoreError::InvalidRequest(why) => write!(f, "invalid request: {why}"),
            CoreError::UnknownRequest(id) => write!(f, "unknown request id {}", id.raw()),
        }
    }
}

impl std::error::Error for CoreError {}

/// Shorthand result alias used across the crate.
pub type CoreResult<T> = Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_lowercase_and_informative() {
        let e = CoreError::InvalidConfig("need at least one device".into());
        assert_eq!(
            e.to_string(),
            "invalid configuration: need at least one device"
        );
        let e = CoreError::InvalidRequest("count must be non-zero".into());
        assert!(e.to_string().contains("count must be non-zero"));
    }

    #[test]
    fn error_is_send_sync() {
        fn takes<T: Send + Sync + std::error::Error>() {}
        takes::<CoreError>();
    }
}
