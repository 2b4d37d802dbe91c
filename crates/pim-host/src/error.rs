//! Host-side error type.

use std::fmt;

/// Result alias for host runtime operations.
pub type Result<T> = std::result::Result<T, HostError>;

/// Errors raised by the host runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HostError {
    /// An error bubbled up from a simulated DPU.
    Dpu(dpu_sim::Error),
    /// A transfer violated the 8-byte alignment/size rule (paper §3.2).
    Alignment {
        /// What was misaligned ("length", "offset").
        what: &'static str,
        /// The offending value.
        value: usize,
    },
    /// A named symbol was redefined or not found.
    Symbol {
        /// The symbol name.
        name: String,
        /// Description of the problem.
        problem: &'static str,
    },
    /// A transfer did not fit in the symbol's capacity.
    SymbolOverflow {
        /// The symbol name.
        name: String,
        /// Requested end offset.
        requested: usize,
        /// Symbol capacity.
        capacity: usize,
    },
    /// A scatter batch was pushed with a length longer than one of its
    /// buffers.
    XferShort {
        /// DPU the short buffer was prepared for.
        dpu: u32,
        /// Bytes the buffer holds.
        len: usize,
        /// Bytes the push sends to every DPU.
        push: usize,
    },
    /// An operation addressed a DPU outside the set.
    NoSuchDpu {
        /// The requested DPU index.
        index: u32,
        /// Number of DPUs in the set.
        len: usize,
    },
    /// The requested allocation is empty or exceeds the system size.
    BadAllocation {
        /// Requested DPU count.
        requested: usize,
    },
    /// A host simulation worker thread panicked while running a DPU.
    WorkerPanic {
        /// The panic payload, when it carried a message.
        detail: String,
    },
    /// A snapshot was restored onto a set or rank of a different shape.
    SnapshotMismatch {
        /// DPUs in the restoring set.
        expected: usize,
        /// DPUs the snapshot captured.
        actual: usize,
    },
    /// A checked host↔DPU transfer exhausted its retries without landing
    /// a frame whose CRC-32C verified (persistent link corruption or
    /// repeated transfer aborts).
    LinkIntegrity {
        /// Symbol the transfer addressed.
        symbol: String,
        /// DPU whose transfer could not be verified.
        dpu: u32,
        /// Attempts made (1 + retries).
        attempts: u32,
    },
}

impl fmt::Display for HostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostError::Dpu(e) => write!(f, "DPU fault: {e}"),
            HostError::Alignment { what, value } => {
                write!(f, "transfer {what} {value} violates the 8-byte rule")
            }
            HostError::Symbol { name, problem } => write!(f, "symbol `{name}`: {problem}"),
            HostError::SymbolOverflow { name, requested, capacity } => write!(
                f,
                "transfer to `{name}` reaches offset {requested} but capacity is {capacity}"
            ),
            HostError::XferShort { dpu, len, push } => {
                write!(f, "xfer buffer for DPU {dpu} holds {len} bytes but the push sends {push}")
            }
            HostError::NoSuchDpu { index, len } => {
                write!(f, "DPU {index} outside set of {len}")
            }
            HostError::BadAllocation { requested } => {
                write!(f, "cannot allocate {requested} DPUs")
            }
            HostError::WorkerPanic { detail } => {
                write!(f, "simulation worker thread panicked: {detail}")
            }
            HostError::SnapshotMismatch { expected, actual } => {
                write!(f, "snapshot captured {actual} DPUs but the target holds {expected}")
            }
            HostError::LinkIntegrity { symbol, dpu, attempts } => write!(
                f,
                "host-link transfer of `{symbol}` to DPU {dpu} failed CRC verification after {attempts} attempts"
            ),
        }
    }
}

impl std::error::Error for HostError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HostError::Dpu(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dpu_sim::Error> for HostError {
    fn from(e: dpu_sim::Error) -> Self {
        HostError::Dpu(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dpu_errors_convert() {
        let e: HostError = dpu_sim::Error::DivisionByZero { pc: 9 }.into();
        assert!(matches!(e, HostError::Dpu(_)));
        assert!(e.to_string().contains("division by zero"));
    }

    #[test]
    fn display_mentions_the_rule() {
        let e = HostError::Alignment { what: "length", value: 13 };
        assert!(e.to_string().contains("8-byte"));
    }

    /// Every variant's Display output names the variant's own diagnostic
    /// payload, so a logged error is always actionable. One case per
    /// variant — this test is the checklist to extend when adding one
    /// (the enum is `#[non_exhaustive]` toward downstream crates, but
    /// in-crate matches stay exhaustive).
    #[test]
    fn every_variant_displays_its_payload() {
        let cases: Vec<(HostError, &[&str])> = vec![
            (
                HostError::Dpu(dpu_sim::Error::DivisionByZero { pc: 7 }),
                &["DPU fault", "division by zero", "pc=7"],
            ),
            (HostError::Alignment { what: "offset", value: 13 }, &["offset", "13", "8-byte"]),
            (
                HostError::Symbol { name: "weights".to_owned(), problem: "not defined" },
                &["weights", "not defined"],
            ),
            (
                HostError::SymbolOverflow {
                    name: "features".to_owned(),
                    requested: 640,
                    capacity: 512,
                },
                &["features", "640", "512"],
            ),
            (HostError::XferShort { dpu: 1, len: 4, push: 8 }, &["DPU 1", "4 bytes", "sends 8"]),
            (HostError::NoSuchDpu { index: 9, len: 4 }, &["DPU 9", "4"]),
            (HostError::BadAllocation { requested: 0 }, &["allocate", "0"]),
            (
                HostError::WorkerPanic { detail: "index out of bounds".to_owned() },
                &["panicked", "index out of bounds"],
            ),
            (HostError::SnapshotMismatch { expected: 64, actual: 32 }, &["32", "64", "snapshot"]),
            (
                HostError::LinkIntegrity { symbol: "weights".to_owned(), dpu: 5, attempts: 4 },
                &["weights", "DPU 5", "4 attempts", "CRC"],
            ),
        ];
        for (err, needles) in cases {
            let shown = err.to_string();
            for needle in needles {
                assert!(
                    shown.contains(needle),
                    "{err:?} displayed as {shown:?}; wanted {needle:?}"
                );
            }
            // Error-trait plumbing: only the Dpu wrapper has a source.
            use std::error::Error as _;
            assert_eq!(err.source().is_some(), matches!(err, HostError::Dpu(_)), "{err:?}");
        }
    }

    #[test]
    fn host_error_is_non_exhaustive_but_clone_eq() {
        // Compile-time spot check that the derives downstream code relies
        // on are in place.
        let e = HostError::BadAllocation { requested: 3 };
        assert_eq!(e.clone(), e);
    }
}
