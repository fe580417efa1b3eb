//! Error types for the bitstream substrate.

use std::fmt;

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by stochastic-number construction and manipulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A probability outside `[0, 1]` was supplied.
    ProbabilityOutOfRange(f64),
    /// Two streams of different lengths were combined where equal lengths are required.
    LengthMismatch {
        /// Length of the left-hand stream.
        left: usize,
        /// Length of the right-hand stream.
        right: usize,
    },
    /// An empty bitstream was supplied where a non-empty one is required.
    EmptyStream,
    /// A string parsed as a bitstream held a character other than `0`,
    /// `1`, whitespace or `_`.
    InvalidCharacter {
        /// The rejected character.
        character: char,
        /// Its index among the string's characters.
        position: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ProbabilityOutOfRange(v) => {
                write!(f, "probability {v} is outside the unipolar range [0, 1]")
            }
            Error::LengthMismatch { left, right } => {
                write!(f, "bitstream length mismatch: {left} vs {right}")
            }
            Error::EmptyStream => write!(f, "bitstream is empty"),
            Error::InvalidCharacter {
                character,
                position,
            } => {
                write!(
                    f,
                    "invalid bitstream character {character:?} at position {position}"
                )
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            Error::ProbabilityOutOfRange(1.5),
            Error::LengthMismatch { left: 8, right: 16 },
            Error::EmptyStream,
            Error::InvalidCharacter {
                character: 'x',
                position: 2,
            },
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
