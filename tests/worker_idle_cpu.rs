//! An idle worker sleeps: after a burst the event loop polls without
//! sleeping for a short, fixed budget, then blocks in `poll(2)` again.
//! Alone in its own test binary, because it reads one worker thread's CPU
//! time from `/proc/self/task/*/stat` and sibling tests' servers would
//! name their workers alike.

#![cfg(target_os = "linux")]

use dlht_core::ShardedTable;
use dlht_net::{DlhtClient, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

/// `/proc` reports CPU times in USER_HZ ticks, which Linux fixes at 100 per
/// second for user space.
const TICK: Duration = Duration::from_millis(10);

/// utime + stime of the thread named `name`, from its
/// `/proc/self/task/<tid>/stat`.
fn thread_cpu(name: &str) -> Duration {
    for task in std::fs::read_dir("/proc/self/task").expect("list tasks") {
        let dir = task.expect("task entry").path();
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        if comm.trim_end() != name {
            continue;
        }
        let stat = std::fs::read_to_string(dir.join("stat")).expect("read stat");
        // Fields after the parenthesised command name start at field 3
        // (state); utime and stime are fields 14 and 15.
        let rest = &stat[stat.rfind(')').expect("comm end") + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks: u32 = fields[11].parse::<u32>().unwrap() + fields[12].parse::<u32>().unwrap();
        return TICK * ticks;
    }
    panic!("no thread named {name}");
}

#[test]
fn idle_worker_stops_spinning() {
    let table = Arc::new(ShardedTable::with_capacity(4, 4_096));
    let server = dlht_net::bind_ephemeral(
        table,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let mut client = DlhtClient::connect(server.local_addr()).unwrap();
    client
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    assert!(client.insert(1, 1).unwrap().inserted());

    // The connection stays open and idle for the window.
    let window = Duration::from_millis(500);
    let before = thread_cpu("dlht-worker-0");
    std::thread::sleep(window);
    let used = thread_cpu("dlht-worker-0") - before;
    assert!(
        used <= window / 20,
        "idle worker used {used:?} of CPU in {window:?}"
    );

    assert_eq!(client.get(1).unwrap(), Some(1));
    drop(client);
    server.shutdown();
}
