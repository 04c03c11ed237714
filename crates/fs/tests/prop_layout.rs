//! Property tests: stripe mapping is an exact partition, and content
//! round-trips through the sparse store.

use bps_core::record::FileId;
use bps_fs::content::SparseStore;
use bps_fs::layout::{Chunk, StripeLayout};
use proptest::prelude::*;

fn layout() -> impl Strategy<Value = StripeLayout> {
    (1u64..300_000, 1usize..9).prop_map(|(stripe, n)| StripeLayout::new(stripe, (0..n).collect()))
}

/// The per-stripe-unit mapping loop `StripeLayout::map` ran before the
/// chunk iterator, kept verbatim as the reference the iterator must equal.
fn reference_map(layout: &StripeLayout, offset: u64, len: u64) -> Vec<Chunk> {
    let mut chunks: Vec<Chunk> = Vec::new();
    if len == 0 {
        return chunks;
    }
    let n = layout.servers.len() as u64;
    let mut pos = offset;
    let end = offset + len;
    while pos < end {
        let stripe_idx = pos / layout.stripe_size;
        let within = pos % layout.stripe_size;
        let piece = (layout.stripe_size - within).min(end - pos);
        let server_slot = (stripe_idx % n) as usize;
        let passes = stripe_idx / n;
        let server_offset = passes * layout.stripe_size + within;
        let server = layout.servers[server_slot];
        match chunks.last_mut() {
            Some(last)
                if last.server == server
                    && last.server_offset + last.len == server_offset
                    && last.file_offset + last.len == pos =>
            {
                last.len += piece;
            }
            _ => chunks.push(Chunk {
                server,
                slot: server_slot,
                server_offset,
                file_offset: pos,
                len: piece,
            }),
        }
        pos += piece;
    }
    chunks
}

/// Stripe sizes from 1 upward: small odd sizes, powers of two up to
/// 2^20, and arbitrary sizes up to 300 000.
fn stripe_size() -> impl Strategy<Value = u64> {
    prop_oneof![1u64..8, (0u32..21).prop_map(|e| 1u64 << e), 1u64..300_000]
}

/// Server lists of 1–8 entries drawn from 4 servers, so a layout may name
/// the same server in several slots, consecutive ones included.
fn servers() -> impl Strategy<Value = Vec<usize>> {
    prop_oneof![
        (1usize..9).prop_map(|n| (0..n).collect::<Vec<_>>()),
        proptest::collection::vec(0usize..4, 1..9),
    ]
}

/// An offset on a stripe boundary, one byte either side of one, or
/// anywhere, from a `(unit, skew, free, on_boundary)` draw.
fn offset_near_boundary(
    stripe: u64,
    (unit, skew, free, on_boundary): (u64, i64, u64, bool),
) -> u64 {
    if on_boundary {
        (unit * stripe).saturating_add_signed(skew)
    } else {
        free
    }
}

/// A request length from a `(kind, raw)` draw: zero, a few bytes, or up to
/// 40 stripe units (at most 3 MB).
fn request_len(stripe: u64, (kind, raw): (u8, u64)) -> u64 {
    match kind {
        0 => 0,
        1 => 1 + raw % 3,
        _ => 1 + raw % (stripe * 40).min(3_000_000),
    }
}

proptest! {
    /// Chunks cover the requested byte range exactly: contiguous ascending
    /// file offsets, lengths summing to the request, nothing beyond.
    #[test]
    fn map_partitions_exactly(l in layout(), offset in 0u64..10_000_000, len in 0u64..5_000_000) {
        let chunks = l.map(offset, len);
        let mut pos = offset;
        for c in &chunks {
            prop_assert_eq!(c.file_offset, pos);
            prop_assert!(c.len > 0);
            prop_assert!(c.slot < l.width());
            prop_assert_eq!(c.server, l.servers[c.slot]);
            pos += c.len;
        }
        prop_assert_eq!(pos, offset + len);
    }

    /// No chunk crosses a stripe boundary unless it was coalesced on the
    /// same server with contiguous server offsets.
    #[test]
    fn chunk_server_offsets_consistent(l in layout(), offset in 0u64..1_000_000, len in 1u64..1_000_000) {
        let chunks = l.map(offset, len);
        // Per server, server offsets are strictly increasing and disjoint.
        for slot in 0..l.width() {
            let mut last_end: Option<u64> = None;
            for c in chunks.iter().filter(|c| c.slot == slot) {
                if let Some(e) = last_end {
                    prop_assert!(c.server_offset >= e);
                }
                last_end = Some(c.server_offset + c.len);
            }
        }
    }

    /// server_share sums to the file size and matches the full-file map.
    #[test]
    fn shares_match_map(l in layout(), size in 0u64..2_000_000) {
        let total: u64 = (0..l.width()).map(|s| l.server_share(s, size)).sum();
        prop_assert_eq!(total, size);
        let chunks = l.map(0, size);
        for slot in 0..l.width() {
            let mapped: u64 = chunks.iter().filter(|c| c.slot == slot).map(|c| c.len).sum();
            prop_assert_eq!(mapped, l.server_share(slot, size), "slot {}", slot);
        }
    }

    /// Two maps of adjacent ranges tile the same chunks as one map of the
    /// union range (after splitting at the join).
    #[test]
    fn adjacent_maps_tile(l in layout(), offset in 0u64..500_000, a in 1u64..300_000, b in 1u64..300_000) {
        let combined: u64 = l.map(offset, a + b).iter().map(|c| c.len).sum();
        let first: u64 = l.map(offset, a).iter().map(|c| c.len).sum();
        let second: u64 = l.map(offset + a, b).iter().map(|c| c.len).sum();
        prop_assert_eq!(combined, first + second);
    }

    /// The chunk iterator yields exactly the chunks of the per-unit loop
    /// it replaced, coalescing included.
    #[test]
    fn chunks_equal_the_reference_loop(
        stripe in stripe_size(),
        servers in servers(),
        at in (0u64..64, -1i64..=1, 0u64..10_000_000, any::<bool>()),
        size in (0u8..3, any::<u64>()),
    ) {
        let l = StripeLayout::new(stripe, servers);
        let offset = offset_near_boundary(stripe, at);
        let len = request_len(stripe, size);
        let reference = reference_map(&l, offset, len);
        let mut it = l.chunks(offset, len);
        for (i, expect) in reference.iter().enumerate() {
            prop_assert_eq!(it.next(), Some(*expect), "chunk {}", i);
        }
        prop_assert_eq!(it.next(), None);
        prop_assert_eq!(it.next(), None);
        prop_assert_eq!(l.map(offset, len), reference);
    }

    /// Sparse store: write-then-read returns exactly what was written,
    /// regardless of chunk alignment.
    #[test]
    fn sparse_store_roundtrip(
        offset in 0u64..100_000,
        data in proptest::collection::vec(any::<u8>(), 0..20_000),
    ) {
        let mut store = SparseStore::new();
        store.write(FileId(1), offset, &data);
        prop_assert_eq!(store.read(FileId(1), offset, data.len() as u64), data);
    }

    /// Overlapping writes: the later write wins on the overlap.
    #[test]
    fn sparse_store_overwrite(
        base in 0u64..10_000,
        first in proptest::collection::vec(any::<u8>(), 1..5_000),
        second in proptest::collection::vec(any::<u8>(), 1..5_000),
        skew in 0u64..2_000,
    ) {
        let mut store = SparseStore::new();
        store.write(FileId(0), base, &first);
        store.write(FileId(0), base + skew, &second);
        let got = store.read(FileId(0), base + skew, second.len() as u64);
        prop_assert_eq!(got, second);
    }
}
