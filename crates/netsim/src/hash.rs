//! A fast deterministic hasher for maps keyed by values this process mints
//! itself: pipe and edge indices, router pairs, delay and timer tokens,
//! local ports and flow ids. (No map is keyed by event ids: an
//! [`EventId`](crate::event::EventId) is its own slab slot.)
//!
//! Not for keys that arrive off the wire. A compromised overlay node chooses
//! its flow keys, and a multiplicative hash lets it pile them into one
//! bucket; such maps keep the standard library's keyed SipHash (DESIGN.md §5).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Add-and-multiply hasher (the rustc `FxHasher` construction).
#[derive(Debug, Default)]
pub struct MintedHasher(u64);

/// A `HashMap` hashed with [`MintedHasher`].
pub type MintedMap<K, V> = HashMap<K, V, BuildHasherDefault<MintedHasher>>;

const K: u64 = 0xf135_7aea_2e62_a9c5;

impl Hasher for MintedHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.wrapping_add(n).wrapping_mul(K);
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        // hashbrown takes the bucket from the low bits and the tag from the
        // top seven. Times an odd constant, 2^b consecutive counters land in
        // 2^b distinct buckets, and the top bits mix every input bit.
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, BuildHasherDefault};

    #[test]
    fn consecutive_counters_never_share_a_bucket() {
        // Tokens minted in sequence: distinct buckets at every table size,
        // and every tag value in use.
        let build = BuildHasherDefault::<MintedHasher>::default();
        let hashes: Vec<u64> = (1000..1000 + 4096u32).map(|n| build.hash_one(n)).collect();
        let buckets: std::collections::HashSet<u64> = hashes.iter().map(|h| h & 0xfff).collect();
        let tags: std::collections::HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert_eq!(buckets.len(), 4096);
        assert_eq!(tags.len(), 128);
    }

    #[test]
    fn map_round_trips_every_key_width_in_use() {
        let mut tokens: MintedMap<u32, u32> = MintedMap::default();
        let mut pipes: MintedMap<crate::link::PipeId, u32> = MintedMap::default();
        for n in 0..1000u32 {
            tokens.insert(n, n);
            pipes.insert(crate::link::PipeId(n as usize * 2), n);
        }
        assert_eq!((tokens.len(), pipes.len()), (1000, 1000));
        assert_eq!(tokens[&17], 17);
        assert_eq!(pipes[&crate::link::PipeId(34)], 17);
        assert!(!pipes.contains_key(&crate::link::PipeId(35)));
    }
}
