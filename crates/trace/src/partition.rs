//! Partitioned workload feeds for sharded (multi-controller) execution.
//!
//! The engine partitions the physical line space across N controller
//! shards by **address interleaving**: line `a` belongs to shard
//! `a mod N`. Interleaving (rather than contiguous slicing) spreads the
//! generators' sequential-address bursts evenly across shards, so a
//! closed-loop client keeps every shard busy.

use dewrite_nvm::LineAddr;

/// The shard that owns `addr` under `shards`-way address interleaving.
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn shard_of_line(addr: LineAddr, shards: usize) -> usize {
    assert!(shards > 0, "shard count must be non-zero");
    (addr.index() % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_address_interleaved() {
        assert_eq!(shard_of_line(LineAddr::new(0), 4), 0);
        assert_eq!(shard_of_line(LineAddr::new(7), 4), 3);
        assert_eq!(shard_of_line(LineAddr::new(8), 4), 0);
        assert_eq!(shard_of_line(LineAddr::new(5), 1), 0);
    }
}
