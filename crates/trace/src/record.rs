//! Trace records.
//!
//! Traces are streams of [`TraceRecord`]s: line-granular reads and writes
//! annotated with the number of instructions executed since the previous
//! memory operation (which drives the IPC model). Drivers regenerate them
//! in memory from (app, seed) rather than reading them from a file.

use dewrite_nvm::LineAddr;

/// One memory operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// Read the line at `addr`.
    Read {
        /// Line address.
        addr: LineAddr,
    },
    /// Write `data` (one full line) to `addr`.
    Write {
        /// Line address.
        addr: LineAddr,
        /// Line contents.
        data: Vec<u8>,
    },
}

impl TraceOp {
    /// The line address this operation targets.
    pub fn addr(&self) -> LineAddr {
        match self {
            TraceOp::Read { addr } | TraceOp::Write { addr, .. } => *addr,
        }
    }

    /// Whether this is a write.
    pub fn is_write(&self) -> bool {
        matches!(self, TraceOp::Write { .. })
    }
}

/// One trace record: an operation plus the instruction gap preceding it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Instructions executed since the previous memory operation.
    pub gap_instructions: u32,
    /// The memory operation.
    pub op: TraceOp,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_helpers() {
        let read = TraceOp::Read {
            addr: LineAddr::new(4),
        };
        let write = TraceOp::Write {
            addr: LineAddr::new(5),
            data: vec![],
        };
        assert!(!read.is_write());
        assert!(write.is_write());
        assert_eq!(read.addr(), LineAddr::new(4));
        assert_eq!(write.addr(), LineAddr::new(5));
    }
}
