//! Stripe layout: how file bytes map onto I/O servers.
//!
//! PVFS2 distributes a file round-robin in fixed-size stripe units across a
//! list of I/O servers (default stripe size 64 KB). A file's layout is an
//! attribute set at creation time — which is how the paper's §IV.C.3
//! experiment pins each process's file onto its own single server.

use serde::{Deserialize, Serialize};

/// The default PVFS2 stripe unit.
pub const DEFAULT_STRIPE_SIZE: u64 = 64 * 1024;

/// One contiguous piece of a request, as served by one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Chunk {
    /// Actual cluster server index (an element of the layout's server list).
    pub server: usize,
    /// Position within the layout's server list (indexes per-slot extents).
    pub slot: usize,
    /// Byte offset inside that server's portion of the file.
    pub server_offset: u64,
    /// Byte offset inside the whole file.
    pub file_offset: u64,
    /// Length in bytes.
    pub len: u64,
}

/// A round-robin stripe layout over an explicit list of servers.
///
/// ```
/// use bps_fs::layout::StripeLayout;
/// // 64 KB stripes over 4 servers: a 256 KB read touches each server once.
/// let layout = StripeLayout::default_over(4);
/// let chunks = layout.map(0, 256 << 10);
/// assert_eq!(chunks.len(), 4);
/// assert_eq!(chunks.iter().map(|c| c.len).sum::<u64>(), 256 << 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StripeLayout {
    /// Stripe unit in bytes.
    pub stripe_size: u64,
    /// The I/O servers holding this file, in round-robin order. Cluster
    /// server indices; duplicates are not meaningful.
    pub servers: Vec<usize>,
}

impl StripeLayout {
    /// Round-robin over `servers` with the given stripe size.
    pub fn new(stripe_size: u64, servers: Vec<usize>) -> Self {
        assert!(stripe_size > 0, "stripe size must be positive");
        assert!(!servers.is_empty(), "layout needs at least one server");
        StripeLayout {
            stripe_size,
            servers,
        }
    }

    /// The PVFS2 default: 64 KB stripes over servers `0..n`.
    pub fn default_over(n: usize) -> Self {
        StripeLayout::new(DEFAULT_STRIPE_SIZE, (0..n).collect())
    }

    /// The paper's §IV.C.3 pinning: the whole file on one server.
    pub fn pinned(server: usize) -> Self {
        StripeLayout::new(DEFAULT_STRIPE_SIZE, vec![server])
    }

    /// Number of servers in the layout.
    pub fn width(&self) -> usize {
        self.servers.len()
    }

    /// Map the byte extent `[offset, offset+len)` onto per-server chunks,
    /// in ascending file-offset order. Adjacent stripe units that land on
    /// the same server (the single-server case) are coalesced.
    pub fn map(&self, offset: u64, len: u64) -> Vec<Chunk> {
        self.chunks(offset, len).collect()
    }

    /// The chunks of [`StripeLayout::map`], produced one at a time without
    /// a vector. The divisions that place `offset` are done once; each
    /// later stripe unit steps the slot and the pass incrementally.
    pub fn chunks(&self, offset: u64, len: u64) -> Chunks<'_> {
        let n = self.servers.len() as u64;
        let stripe_idx = offset / self.stripe_size;
        Chunks {
            servers: &self.servers,
            stripe_size: self.stripe_size,
            pos: offset,
            end: offset + len,
            slot: (stripe_idx % n) as usize,
            // How many complete passes over the server list precede this
            // stripe: that many stripe units already sit on this server.
            pass_base: stripe_idx / n * self.stripe_size,
            within: offset % self.stripe_size,
        }
    }

    /// Total bytes of the file that live on layout slot `slot` for a file
    /// of `file_size` bytes (used to size per-server extents at creation).
    pub fn server_share(&self, slot: usize, file_size: u64) -> u64 {
        let n = self.servers.len() as u64;
        let full_stripes = file_size / self.stripe_size;
        let tail = file_size % self.stripe_size;
        let full_passes = full_stripes / n;
        let extra = full_stripes % n;
        let slot64 = slot as u64;
        let mut share = full_passes * self.stripe_size;
        if slot64 < extra {
            share += self.stripe_size;
        } else if slot64 == extra {
            share += tail;
        }
        share
    }
}

/// Iterator over the chunks of one request; see [`StripeLayout::chunks`].
///
/// Between calls the cursor describes the stripe unit holding `pos`: its
/// layout slot, the server offset at which that unit's pass begins, and
/// `pos`'s offset inside the unit.
#[derive(Debug, Clone)]
pub struct Chunks<'a> {
    servers: &'a [usize],
    stripe_size: u64,
    pos: u64,
    end: u64,
    slot: usize,
    pass_base: u64,
    within: u64,
}

impl Chunks<'_> {
    /// Take the rest of the current stripe unit (up to `end`) as one chunk
    /// and, if bytes remain, move the cursor to the next unit.
    #[inline]
    fn unit(&mut self) -> Chunk {
        let len = (self.stripe_size - self.within).min(self.end - self.pos);
        let chunk = Chunk {
            server: self.servers[self.slot],
            slot: self.slot,
            server_offset: self.pass_base + self.within,
            file_offset: self.pos,
            len,
        };
        self.pos += len;
        if self.pos < self.end {
            self.within = 0;
            self.slot += 1;
            if self.slot == self.servers.len() {
                self.slot = 0;
                self.pass_base += self.stripe_size;
            }
        }
        chunk
    }
}

impl Iterator for Chunks<'_> {
    type Item = Chunk;

    #[inline]
    fn next(&mut self) -> Option<Chunk> {
        if self.pos >= self.end {
            return None;
        }
        let mut chunk = self.unit();
        // Coalesce following units on the same server whose server
        // offsets continue this chunk's.
        while self.pos < self.end
            && self.servers[self.slot] == chunk.server
            && chunk.server_offset + chunk.len == self.pass_base + self.within
        {
            chunk.len += self.unit().len;
        }
        Some(chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_partition_request_exactly() {
        let l = StripeLayout::new(100, vec![0, 1, 2]);
        let chunks = l.map(37, 1000);
        // Lengths sum; file offsets are contiguous ascending.
        let total: u64 = chunks.iter().map(|c| c.len).sum();
        assert_eq!(total, 1000);
        let mut pos = 37;
        for c in &chunks {
            assert_eq!(c.file_offset, pos);
            assert!(c.len > 0);
            pos += c.len;
        }
        assert_eq!(pos, 1037);
    }

    #[test]
    fn round_robin_assignment() {
        let l = StripeLayout::new(10, vec![5, 7]);
        let chunks = l.map(0, 40);
        let servers: Vec<usize> = chunks.iter().map(|c| c.server).collect();
        assert_eq!(servers, vec![5, 7, 5, 7]);
        // Server offsets advance per pass.
        assert_eq!(chunks[0].server_offset, 0);
        assert_eq!(chunks[2].server_offset, 10);
    }

    #[test]
    fn single_server_coalesces() {
        let l = StripeLayout::pinned(3);
        let chunks = l.map(0, 10 * DEFAULT_STRIPE_SIZE);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].server, 3);
        assert_eq!(chunks[0].len, 10 * DEFAULT_STRIPE_SIZE);
        assert_eq!(chunks[0].server_offset, 0);
    }

    #[test]
    fn unaligned_start_and_end() {
        let l = StripeLayout::new(100, vec![0, 1]);
        let chunks = l.map(150, 100);
        // [150,200) on server 1 (stripe 1), [200,250) on server 0 (stripe 2).
        assert_eq!(chunks.len(), 2);
        assert_eq!(
            chunks[0],
            Chunk {
                server: 1,
                slot: 1,
                server_offset: 50,
                file_offset: 150,
                len: 50
            }
        );
        assert_eq!(
            chunks[1],
            Chunk {
                server: 0,
                slot: 0,
                server_offset: 100,
                file_offset: 200,
                len: 50
            }
        );
    }

    #[test]
    fn empty_request_maps_to_nothing() {
        let l = StripeLayout::default_over(4);
        assert!(l.map(123, 0).is_empty());
    }

    #[test]
    fn server_share_sums_to_file_size() {
        let l = StripeLayout::new(100, vec![0, 1, 2]);
        for size in [0u64, 1, 99, 100, 250, 299, 300, 301, 1000] {
            let total: u64 = (0..3).map(|s| l.server_share(s, size)).sum();
            assert_eq!(total, size, "size {size}");
        }
    }

    #[test]
    fn server_share_matches_map() {
        let l = StripeLayout::new(64, vec![0, 1, 2, 3]);
        let size = 1000;
        let chunks = l.map(0, size);
        for slot in 0..4 {
            let mapped: u64 = chunks
                .iter()
                .filter(|c| c.server == l.servers[slot])
                .map(|c| c.len)
                .sum();
            assert_eq!(mapped, l.server_share(slot, size), "slot {slot}");
        }
    }

    #[test]
    fn default_over_uses_pvfs_stripe() {
        let l = StripeLayout::default_over(8);
        assert_eq!(l.stripe_size, 64 * 1024);
        assert_eq!(l.width(), 8);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_server_list_rejected() {
        let _ = StripeLayout::new(64, vec![]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_stripe_rejected() {
        let _ = StripeLayout::new(0, vec![0]);
    }
}
