//! The machine under the benchmark: CPU pinning and the run header.
//!
//! Pinning uses a hand-declared `sched_setaffinity(2)` binding (the symbol
//! comes from the libc every Rust binary links), in the same way
//! `dlht-net`'s `poll.rs` binds `poll(2)`: no new dependency. A thread
//! inherits its creator's mask, which is how the server threads of
//! `wire-kv` are placed: the main thread pins itself to the server CPU
//! before `DlhtServer::bind_with` spawns them.

use std::fs;

/// Bits in the kernel `cpu_set_t` we pass (1024 CPUs, glibc's size).
const CPU_SET_WORDS: usize = 16;

#[cfg(target_os = "linux")]
mod ffi {
    use std::os::raw::c_int;

    extern "C" {
        /// `int sched_setaffinity(pid_t pid, size_t cpusetsize, const cpu_set_t *mask)`.
        pub fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
        /// `int sched_getaffinity(pid_t pid, size_t cpusetsize, cpu_set_t *mask)`.
        pub fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
    }
}

/// The CPUs this process may run on, in ascending order.
pub fn allowed_cpus() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; CPU_SET_WORDS];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a writable buffer of exactly `size` bytes; pid 0
        // names the calling thread.
        let rc = unsafe { ffi::sched_getaffinity(0, size, mask.as_mut_ptr()) };
        if rc == 0 {
            let cpus: Vec<usize> = (0..CPU_SET_WORDS * 64)
                .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
                .collect();
            if !cpus.is_empty() {
                return cpus;
            }
        }
    }
    let n = std::thread::available_parallelism().map_or(1, |n| n.get());
    (0..n).collect()
}

/// Pin the calling thread to `cpu`. Returns whether the kernel accepted it.
pub fn pin_current_thread(cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        if cpu >= CPU_SET_WORDS * 64 {
            return false;
        }
        let mut mask = [0u64; CPU_SET_WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a readable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        unsafe { ffi::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpu;
        false
    }
}

/// Load-thread slot → CPU. Slot `i` runs on the `i`-th allowed CPU counted
/// from the last (wrapping when the process may use fewer CPUs than slots),
/// so a single load thread stays off CPU 0, which takes most device
/// interrupts.
#[derive(Debug, Clone)]
pub struct Pinning {
    cpus: Vec<usize>,
    /// Human-readable record of every placement, for the run header.
    pub map: Vec<String>,
}

impl Pinning {
    pub fn new() -> Self {
        Pinning {
            cpus: allowed_cpus(),
            map: Vec::new(),
        }
    }

    pub fn cpu(&self, slot: usize) -> usize {
        self.cpus[self.cpus.len() - 1 - slot % self.cpus.len()]
    }

    /// Pin the calling thread to the CPU of `slot`.
    pub fn pin(&self, slot: usize) -> bool {
        pin_current_thread(self.cpu(slot))
    }

    /// Record a placement for the header (done once, from the setup code).
    pub fn note(&mut self, role: &str, slot: usize) {
        let line = format!("{role}->cpu{}", self.cpu(slot));
        if !self.map.contains(&line) {
            self.map.push(line);
        }
    }
}

fn read_trim(path: &str) -> Option<String> {
    fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

/// Parse a sysfs cache size such as `2048K` or `300M` into bytes.
fn parse_size(text: &str) -> Option<u64> {
    let (digits, mult) = match text.chars().last()? {
        'K' => (&text[..text.len() - 1], 1u64 << 10),
        'M' => (&text[..text.len() - 1], 1 << 20),
        'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok().map(|d| d * mult)
}

/// What the run header reports about the machine.
#[derive(Debug, Clone)]
pub struct Machine {
    pub nproc: usize,
    pub cpu_model: String,
    pub l2_bytes: u64,
    pub llc_bytes: u64,
    pub kernel: String,
}

impl Machine {
    pub fn probe() -> Self {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let mut l2_bytes = 0;
        let mut llc_bytes = 0;
        let mut llc_level = 0;
        for i in 0..8 {
            let base = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let (Some(level), Some(kind), Some(size)) = (
                read_trim(&format!("{base}/level")),
                read_trim(&format!("{base}/type")),
                read_trim(&format!("{base}/size")),
            ) else {
                continue;
            };
            let (Ok(level), Some(size)) = (level.parse::<u32>(), parse_size(&size)) else {
                continue;
            };
            if kind == "Instruction" {
                continue;
            }
            if level == 2 {
                l2_bytes = size;
            }
            if level >= llc_level {
                llc_level = level;
                llc_bytes = size;
            }
        }
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            l2_bytes,
            llc_bytes,
            kernel: read_trim("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("2048K"), Some(2 << 20));
        assert_eq!(parse_size("300M"), Some(300 << 20));
        assert_eq!(parse_size("64"), Some(64));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn pinning_to_an_allowed_cpu_succeeds() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        std::thread::spawn(move || assert!(pin_current_thread(cpus[0])))
            .join()
            .unwrap();
    }
}
