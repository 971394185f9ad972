//! Index memory on Linux: the bins of a large `DlhtMap` must be backed by
//! transparent huge pages. They only are if the `MADV_HUGEPAGE` advice
//! reaches the kernel before the first write to the bins; memory written
//! first (e.g. zeroed by the allocator) is faulted in as 4 KiB pages.
//!
//! This is its own test binary so that no other test's allocations share
//! the process's memory map while it is read.

#![cfg(target_os = "linux")]

use dlht::{DlhtConfig, DlhtMap};

const HUGE_PAGE: usize = 2 << 20;
const BUCKET_BYTES: usize = 64;

/// One `/proc/self/smaps` entry: its size, `AnonHugePages`, and whether
/// `VmFlags` carries `hg` (the range was advised `MADV_HUGEPAGE`).
#[derive(Debug, Default)]
struct Mapping {
    bytes: usize,
    anon_huge_kib: usize,
    advised: bool,
}

fn smaps() -> Vec<Mapping> {
    let text = std::fs::read_to_string("/proc/self/smaps").expect("read /proc/self/smaps");
    let mut maps: Vec<Mapping> = Vec::new();
    for line in text.lines() {
        let first = line.split_whitespace().next().unwrap_or("");
        if let Some((start, end)) = first.split_once('-') {
            if let (Ok(start), Ok(end)) = (
                usize::from_str_radix(start, 16),
                usize::from_str_radix(end, 16),
            ) {
                maps.push(Mapping {
                    bytes: end - start,
                    ..Mapping::default()
                });
                continue;
            }
        }
        let Some(map) = maps.last_mut() else { continue };
        if let Some(kib) = line.strip_prefix("AnonHugePages:") {
            map.anon_huge_kib = kib.trim().trim_end_matches("kB").trim().parse().unwrap();
        } else if let Some(flags) = line.strip_prefix("VmFlags:") {
            map.advised = flags.split_whitespace().any(|f| f == "hg");
        }
    }
    maps
}

#[test]
fn large_index_bins_are_backed_by_huge_pages() {
    const ENABLED: &str = "/sys/kernel/mm/transparent_hugepage/enabled";
    match std::fs::read_to_string(ENABLED) {
        Err(e) => {
            eprintln!("skipped: {ENABLED} is missing ({e}); the kernel has no huge pages");
            return;
        }
        Ok(mode) if mode.contains("[never]") => {
            eprintln!("skipped: {ENABLED} reads [never]; the kernel gives no huge pages");
            return;
        }
        Ok(_) => {}
    }

    let map = DlhtMap::with_config(DlhtConfig::new((64 << 20) / BUCKET_BYTES));
    let bins_bytes = map.stats().bins * BUCKET_BYTES;
    assert!(bins_bytes >= 64 << 20);
    // The advice covers the bins' whole huge pages, which splits them into a
    // mapping of their own; the link buckets are 1/8 of the bins, so the
    // bins' mapping is the largest advised one.
    let advised_bytes = bins_bytes & !(HUGE_PAGE - 1);
    let maps = smaps();
    let bins = maps
        .iter()
        .filter(|m| m.advised)
        .max_by_key(|m| m.bytes)
        .unwrap_or_else(|| panic!("no MADV_HUGEPAGE mapping in {maps:?}"));
    assert!(
        bins.bytes >= advised_bytes,
        "largest advised mapping {bins:?} is smaller than the bins' {advised_bytes} bytes"
    );
    // Advised before the first write, every fault in the range takes a huge
    // page. Advised after it, the range holds 4 KiB pages, and only
    // khugepaged collapses them later (by default a few huge pages per 10 s
    // wake-up), so a majority of huge pages is the check that tells the two
    // orders apart.
    assert!(
        bins.anon_huge_kib * 1024 * 2 >= advised_bytes,
        "the bins' mapping {bins:?} is mostly 4 KiB pages: advised after the first write?"
    );
    drop(map);
}
