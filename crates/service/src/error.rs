//! The structured failure vocabulary of the service.
//!
//! Every way a request can fail maps onto one of these variants, and
//! every variant has a stable machine-readable `code` that crosses the
//! wire — clients branch on the code, humans read the message.

use std::fmt;

/// Why a request was not served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The request itself is malformed (unparseable expression, unknown
    /// ISA, missing field, bad input value…). Retrying is pointless.
    BadRequest(String),
    /// The compiler rejected the (well-formed) expression — e.g. the
    /// target cannot implement it. Retrying is pointless.
    Compile(String),
    /// The request's deadline expired before a result was ready. The
    /// compile may still finish and populate the cache for a retry.
    Timeout {
        /// The budget that expired, in milliseconds.
        budget_ms: u64,
    },
    /// The server shed the request: its dispatch queue, the
    /// connection's response budget, or the connection cap was full.
    /// Retrying after a backoff is reasonable.
    Overloaded,
    /// A server-side invariant failed (a bug, not a bad request).
    Internal(String),
}

impl ServiceError {
    /// The stable machine-readable error code.
    pub fn code(&self) -> &'static str {
        match self {
            ServiceError::BadRequest(_) => "bad_request",
            ServiceError::Compile(_) => "compile_error",
            ServiceError::Timeout { .. } => "timeout",
            ServiceError::Overloaded => "overloaded",
            ServiceError::Internal(_) => "internal",
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServiceError::Compile(m) => write!(f, "compile error: {m}"),
            ServiceError::Timeout { budget_ms } => {
                write!(f, "deadline exceeded ({budget_ms} ms)")
            }
            ServiceError::Overloaded => f.write_str("server overloaded, request shed"),
            ServiceError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for ServiceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_distinct() {
        let all = [
            ServiceError::BadRequest(String::new()),
            ServiceError::Compile(String::new()),
            ServiceError::Timeout { budget_ms: 1 },
            ServiceError::Overloaded,
            ServiceError::Internal(String::new()),
        ];
        let codes: Vec<&str> = all.iter().map(|e| e.code()).collect();
        assert_eq!(codes, ["bad_request", "compile_error", "timeout", "overloaded", "internal"]);
        let mut dedup = codes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), codes.len());
    }
}
