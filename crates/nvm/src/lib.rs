//! A non-volatile main memory (NVM) device model.
//!
//! This crate is the bottom substrate of the DeWrite reproduction: a
//! trace-driven PCM-like main memory with
//!
//! * **sparse line storage** — 16 GB address space, pages of lines
//!   materialized on first write, unwritten lines reading as zeros
//!   ([`NvmDevice`]);
//! * **bank-level contention** — each access occupies its (line-interleaved)
//!   bank for the device service time, and later arrivals queue
//!   ([`Bank`], [`BankSet`]); this queueing is what duplicate-write
//!   elimination relieves;
//! * **asymmetric timing** — 75 ns reads vs 300 ns writes ([`Timing::PCM`]),
//!   the property that makes "confirm a duplicate by reading it" cheap;
//! * **free-space management** — a one-bit-per-line bitmap in 512-line
//!   chunks under per-chunk free counters, with home-preference placement
//!   and a wear-rotating mode ([`FsmTree`]), owned by one caller (an
//!   engine shard) and mutated through `&mut self`;
//! * **wear tracking** — per-line write counts beside the lines, running
//!   totals, maximum and programmed-bit counts ([`WearTracker`]) for the
//!   endurance results;
//! * **energy accounting** — per-flipped-bit write energy and a bucketed
//!   breakdown across NVM array / AES circuit / dedup logic
//!   ([`EnergyParams`], [`EnergyBreakdown`]).
//!
//! # Example
//!
//! ```
//! use dewrite_nvm::{LineAddr, NvmConfig, NvmDevice};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut nvm = NvmDevice::new(NvmConfig::small())?;
//! // The caller programs the line and says how many cells that flipped.
//! let write = nvm.write_with(LineAddr::new(0), 0, |line| {
//!     line.fill(0xFF);
//!     2048 // fresh cells were all zero
//! })?;
//! assert_eq!(write.finish_ns, 300); // PCM write latency
//! assert_eq!(nvm.wear().total_bits_flipped(), 2048);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bank;
mod config;
mod device;
mod energy;
mod fsm_tree;
mod line;
mod timing;
mod wear;
mod wearlevel;

pub use bank::{Bank, BankSet, BankSlot};
pub use config::NvmConfig;
pub use device::{NvmDevice, NvmError, LINES_PER_PAGE};
pub use energy::{EnergyBreakdown, EnergyParams};
pub use fsm_tree::{
    FsmStats, FsmTree, CHUNK_LINES, CHUNK_WORDS, REFILL_MIN_FREE, WEAR_BUCKET_SHIFT,
};
pub use line::{bit_flips, is_zero_line, LineAddr, DEFAULT_LINE_SIZE};
pub use timing::Timing;
pub use wear::WearTracker;
pub use wearlevel::StartGap;
