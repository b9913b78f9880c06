//! Reusable scratch buffers for per-batch / per-shard hot loops.
//!
//! The replay and sharded-data-plane paths run millions of small batches;
//! allocating a fresh `Vec` per batch (or per shard per batch) turns the
//! allocator into the bottleneck. These helpers keep the backing storage
//! alive across iterations: a `clear()` on a `Vec` keeps its capacity, so
//! steady state allocates nothing.

/// Reusable per-group index bins: the batch dispatcher's scratch.
///
/// `reset(groups)` clears every bin without freeing storage; `push`
/// appends an item index to a group's bin. Iterating a bin yields the
/// indices in the order they were pushed — for the sharded data plane
/// that is global packet order, which the determinism argument relies on.
#[derive(Debug, Default)]
pub struct ShardBins {
    bins: Vec<Vec<u32>>,
}

impl ShardBins {
    pub const fn new() -> Self {
        Self { bins: Vec::new() }
    }

    /// Makes exactly `groups` empty bins available, retaining capacity.
    pub fn reset(&mut self, groups: usize) {
        for bin in &mut self.bins {
            bin.clear();
        }
        if self.bins.len() < groups {
            self.bins.resize_with(groups, Vec::new);
        } else {
            self.bins.truncate(groups);
        }
    }

    pub fn push(&mut self, group: usize, idx: u32) {
        self.bins[group].push(idx);
    }

    pub fn bin(&self, group: usize) -> &[u32] {
        &self.bins[group]
    }

    pub fn groups(&self) -> usize {
        self.bins.len()
    }

    /// Total items across all bins.
    pub fn len(&self) -> usize {
        self.bins.iter().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.bins.iter().all(Vec::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_reset_and_preserve_push_order() {
        let mut bins = ShardBins::new();
        bins.reset(3);
        bins.push(0, 5);
        bins.push(2, 1);
        bins.push(0, 7);
        assert_eq!(bins.bin(0), &[5, 7]);
        assert_eq!(bins.bin(1), &[] as &[u32]);
        assert_eq!(bins.bin(2), &[1]);
        assert_eq!(bins.len(), 3);
        bins.reset(2);
        assert_eq!(bins.groups(), 2);
        assert!(bins.is_empty());
    }
}
