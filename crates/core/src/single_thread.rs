//! Single-threaded, synchronization-overhead-free variant (§3.4.5).
//!
//! When a client opts into single-threaded use, DLHT removes the three
//! sources of thread-safety overhead: (1) lock-free algorithms become plain
//! loads/stores, (2) no concurrent-resize checks, and (3) no enter/leave
//! notifications. The paper keeps the same bin/bucket structure and simply
//! downgrades the atomics; this module does the same with plain integers.

use crate::bucket::is_reserved_key;
use crate::config::DlhtConfig;
use crate::error::{DlhtError, InsertOutcome};
use crate::prefetch::prefetch_read;

const PRIMARY_SLOTS: usize = 3;
const LINK_SLOTS: usize = 4;
const MAX_SLOTS: usize = 15;
const NO_LINK: u32 = u32::MAX;

/// One bin: a primary bucket worth of slots plus up to three chained link
/// buckets, mirroring the concurrent layout without any atomics.
#[derive(Clone)]
struct StBin {
    /// Bitmask of occupied slots (bit i = slot i used), 15 bits.
    used: u16,
    keys: [u64; PRIMARY_SLOTS],
    vals: [u64; PRIMARY_SLOTS],
    link_first: u32,
    link_pair: u32,
}

impl StBin {
    fn new() -> Self {
        StBin {
            used: 0,
            keys: [0; PRIMARY_SLOTS],
            vals: [0; PRIMARY_SLOTS],
            link_first: NO_LINK,
            link_pair: NO_LINK,
        }
    }
}

#[derive(Clone)]
struct StLink {
    keys: [u64; LINK_SLOTS],
    vals: [u64; LINK_SLOTS],
}

impl StLink {
    fn new() -> Self {
        StLink {
            keys: [0; LINK_SLOTS],
            vals: [0; LINK_SLOTS],
        }
    }
}

/// Single-threaded DLHT map (Inlined mode).
///
/// Functionally equivalent to [`crate::DlhtMap`] for one thread, minus all
/// synchronization. Resizes are immediate (no transfer protocol needed).
pub struct SingleThreadMap {
    bins: Vec<StBin>,
    links: Vec<StLink>,
    links_used: usize,
    config: DlhtConfig,
    len: usize,
    resizes: u64,
}

impl SingleThreadMap {
    /// Create a map from a configuration.
    pub fn with_config(config: DlhtConfig) -> Self {
        let num_bins = config.num_bins.max(2);
        let num_links = config.link_buckets_for(num_bins);
        SingleThreadMap {
            bins: vec![StBin::new(); num_bins],
            links: vec![StLink::new(); num_links],
            links_used: 0,
            config,
            len: 0,
            resizes: 0,
        }
    }

    /// Create a map sized for about `keys` keys.
    pub fn with_capacity(keys: usize) -> Self {
        Self::with_config(DlhtConfig::for_capacity(keys))
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of resizes performed.
    pub fn resizes(&self) -> u64 {
        self.resizes
    }

    #[inline]
    fn bin_of(&self, key: u64) -> usize {
        (self.config.hash.hash_u64(key) % self.bins.len() as u64) as usize
    }

    #[inline]
    fn slot_key(&self, bin: &StBin, slot: usize) -> u64 {
        if slot < PRIMARY_SLOTS {
            bin.keys[slot]
        } else if slot < PRIMARY_SLOTS + LINK_SLOTS {
            self.links[bin.link_first as usize].keys[slot - PRIMARY_SLOTS]
        } else {
            let rel = slot - PRIMARY_SLOTS - LINK_SLOTS;
            self.links[bin.link_pair as usize + rel / LINK_SLOTS].keys[rel % LINK_SLOTS]
        }
    }

    #[inline]
    fn slot_val(&self, bin: &StBin, slot: usize) -> u64 {
        if slot < PRIMARY_SLOTS {
            bin.vals[slot]
        } else if slot < PRIMARY_SLOTS + LINK_SLOTS {
            self.links[bin.link_first as usize].vals[slot - PRIMARY_SLOTS]
        } else {
            let rel = slot - PRIMARY_SLOTS - LINK_SLOTS;
            self.links[bin.link_pair as usize + rel / LINK_SLOTS].vals[rel % LINK_SLOTS]
        }
    }

    fn set_slot(&mut self, bin_no: usize, slot: usize, key: u64, val: u64) {
        let bin = &self.bins[bin_no];
        if slot < PRIMARY_SLOTS {
            let bin = &mut self.bins[bin_no];
            bin.keys[slot] = key;
            bin.vals[slot] = val;
        } else if slot < PRIMARY_SLOTS + LINK_SLOTS {
            let l = bin.link_first as usize;
            self.links[l].keys[slot - PRIMARY_SLOTS] = key;
            self.links[l].vals[slot - PRIMARY_SLOTS] = val;
        } else {
            let rel = slot - PRIMARY_SLOTS - LINK_SLOTS;
            let l = bin.link_pair as usize + rel / LINK_SLOTS;
            self.links[l].keys[rel % LINK_SLOTS] = key;
            self.links[l].vals[rel % LINK_SLOTS] = val;
        }
    }

    /// Slot index of `key` in its bin, if present.
    fn find(&self, bin_no: usize, key: u64) -> Option<usize> {
        let bin = &self.bins[bin_no];
        for slot in 0..MAX_SLOTS {
            if bin.used & (1 << slot) == 0 {
                continue;
            }
            if self.slot_key(bin, slot) == key {
                return Some(slot);
            }
        }
        None
    }

    /// Look up `key`.
    pub fn get(&self, key: u64) -> Option<u64> {
        let bin_no = self.bin_of(key);
        let slot = self.find(bin_no, key)?;
        Some(self.slot_val(&self.bins[bin_no], slot))
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Update an existing key; returns the previous value.
    pub fn put(&mut self, key: u64, value: u64) -> Option<u64> {
        let bin_no = self.bin_of(key);
        let slot = self.find(bin_no, key)?;
        let old = self.slot_val(&self.bins[bin_no], slot);
        self.set_slot(bin_no, slot, key, value);
        Some(old)
    }

    /// Delete `key`; the slot is immediately reusable.
    pub fn delete(&mut self, key: u64) -> Option<u64> {
        let bin_no = self.bin_of(key);
        let slot = self.find(bin_no, key)?;
        let old = self.slot_val(&self.bins[bin_no], slot);
        self.bins[bin_no].used &= !(1 << slot);
        self.len -= 1;
        Some(old)
    }

    /// Insert `key -> value`; fails if the key exists.
    pub fn insert(&mut self, key: u64, value: u64) -> Result<InsertOutcome, DlhtError> {
        if is_reserved_key(key) {
            return Err(DlhtError::ReservedKey);
        }
        loop {
            let bin_no = self.bin_of(key);
            if let Some(slot) = self.find(bin_no, key) {
                return Ok(InsertOutcome::AlreadyExists(
                    self.slot_val(&self.bins[bin_no], slot),
                ));
            }
            match self.try_place(bin_no, key, value) {
                Ok(()) => {
                    self.len += 1;
                    return Ok(InsertOutcome::Inserted);
                }
                Err(()) => {
                    if !self.config.resizing {
                        return Err(DlhtError::TableFull);
                    }
                    self.grow();
                }
            }
        }
    }

    /// Find a free slot in the bin (chaining link buckets as needed) and fill
    /// it. `Err(())` means the bin or the link pool is exhausted.
    fn try_place(&mut self, bin_no: usize, key: u64, value: u64) -> Result<(), ()> {
        for slot in 0..MAX_SLOTS {
            if self.bins[bin_no].used & (1 << slot) != 0 {
                continue;
            }
            // Chain link buckets on demand.
            if (PRIMARY_SLOTS..PRIMARY_SLOTS + LINK_SLOTS).contains(&slot) {
                if self.bins[bin_no].link_first == NO_LINK {
                    if self.links_used >= self.links.len() {
                        return Err(());
                    }
                    self.bins[bin_no].link_first = self.links_used as u32;
                    self.links_used += 1;
                }
            } else if slot >= PRIMARY_SLOTS + LINK_SLOTS && self.bins[bin_no].link_pair == NO_LINK {
                if self.links_used + 2 > self.links.len() {
                    return Err(());
                }
                self.bins[bin_no].link_pair = self.links_used as u32;
                self.links_used += 2;
            }
            self.set_slot(bin_no, slot, key, value);
            self.bins[bin_no].used |= 1 << slot;
            return Ok(());
        }
        Err(())
    }

    /// Grow the index by the paper's growth schedule and reinsert every pair.
    fn grow(&mut self) {
        let factor = DlhtConfig::growth_factor(self.bins.len());
        let new_bins = self.bins.len() * factor;
        let mut bigger = SingleThreadMap::with_config(self.config.clone().with_bins(new_bins));
        self.for_each(|k, v| {
            let _ = bigger
                .insert(k, v)
                .expect("reinsertion into a larger index cannot fail");
        });
        bigger.resizes = self.resizes + 1;
        *self = bigger;
    }

    /// Visit every live pair.
    pub fn for_each(&self, mut f: impl FnMut(u64, u64)) {
        for bin in &self.bins {
            for slot in 0..MAX_SLOTS {
                if bin.used & (1 << slot) != 0 {
                    f(self.slot_key(bin, slot), self.slot_val(bin, slot));
                }
            }
        }
    }

    /// Execute the queued requests of `batch` in order with a prefetch
    /// sweep, mirroring the concurrent batch API (§3.3) without any
    /// synchronization cost. The batch's response storage is reused across
    /// calls — see [`crate::Batch`].
    pub fn execute(&mut self, batch: &mut crate::batch::Batch, policy: crate::batch::BatchPolicy) {
        use crate::batch::{Request, Response};
        for req in batch.requests() {
            prefetch_read(&self.bins[self.bin_of(req.key())] as *const StBin);
        }
        batch.run_in_order(policy, |req| match req {
            Request::Get(k) => Response::Value(self.get(k)),
            Request::Put(k, v) => Response::Updated(self.put(k, v)),
            Request::Insert(k, v) => Response::Inserted(self.insert(k, v)),
            Request::Delete(k) => Response::Deleted(self.delete(k)),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlht_hash::HashKind;

    #[test]
    fn basic_operations() {
        let mut m = SingleThreadMap::with_capacity(100);
        assert_eq!(m.get(1), None);
        assert!(m.insert(1, 10).unwrap().inserted());
        assert!(!m.insert(1, 11).unwrap().inserted());
        assert_eq!(m.get(1), Some(10));
        assert_eq!(m.put(1, 12), Some(10));
        assert_eq!(m.delete(1), Some(12));
        assert_eq!(m.delete(1), None);
        assert!(m.is_empty());
    }

    #[test]
    fn grows_transparently() {
        let mut m = SingleThreadMap::with_config(DlhtConfig::new(4).with_hash(HashKind::WyHash));
        for k in 0..5_000u64 {
            assert!(m.insert(k, k * 2).unwrap().inserted());
        }
        assert!(m.resizes() > 0);
        assert_eq!(m.len(), 5_000);
        for k in 0..5_000u64 {
            assert_eq!(m.get(k), Some(k * 2));
        }
    }

    #[test]
    fn matches_std_hashmap_on_random_ops() {
        use std::collections::HashMap;
        let mut m = SingleThreadMap::with_config(DlhtConfig::new(8).with_hash(HashKind::WyHash));
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut state = 0x12345678u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..20_000 {
            let key = rng() % 500;
            match rng() % 4 {
                0 => {
                    let inserted = m.insert(key, key + 1).unwrap().inserted();
                    let model_inserted = !model.contains_key(&key);
                    if model_inserted {
                        model.insert(key, key + 1);
                    }
                    assert_eq!(inserted, model_inserted);
                }
                1 => assert_eq!(m.delete(key), model.remove(&key)),
                2 => assert_eq!(m.get(key), model.get(&key).copied()),
                _ => {
                    let new_v = key + 77;
                    let expected = model.get(&key).copied();
                    assert_eq!(m.put(key, new_v), expected);
                    if expected.is_some() {
                        model.insert(key, new_v);
                    }
                }
            }
        }
        assert_eq!(m.len(), model.len());
    }

    #[test]
    fn batch_api_without_synchronization() {
        use crate::batch::{Batch, BatchPolicy, Request, Response};
        let mut m = SingleThreadMap::with_capacity(64);
        let mut batch: Batch = [
            Request::Insert(1, 1),
            Request::Get(1),
            Request::Get(2),
            Request::Insert(2, 2),
        ]
        .into_iter()
        .collect();
        m.execute(&mut batch, BatchPolicy::StopOnFailure);
        let resps = batch.responses();
        assert_eq!(resps[1], Response::Value(Some(1)));
        assert_eq!(resps[2], Response::Value(None));
        assert_eq!(resps[3], Response::Skipped);
    }

    #[test]
    fn reusable_batch_on_the_single_thread_map() {
        use crate::batch::{Batch, BatchPolicy, Response};
        let mut m = SingleThreadMap::with_capacity(64);
        let mut batch = Batch::with_capacity(3);
        for round in 0..10u64 {
            batch.clear();
            batch.push_insert(round, round);
            batch.push_get(round);
            batch.push_delete(round);
            m.execute(&mut batch, BatchPolicy::RunAll);
            assert_eq!(batch.responses()[1], Response::Value(Some(round)));
        }
        assert!(m.is_empty());
    }

    #[test]
    fn table_full_without_resizing() {
        let mut m = SingleThreadMap::with_config(
            DlhtConfig::new(2).with_link_ratio(1).with_resizing(false),
        );
        let mut err = None;
        for k in 0..200u64 {
            if let Err(e) = m.insert(k * 2, k) {
                err = Some(e);
                break;
            }
        }
        assert_eq!(err, Some(DlhtError::TableFull));
    }
}
