//! The admin plane's thread budget: idle admin connections cost buffers on
//! its event loop, never threads. Alone in its own test binary, because it
//! counts every thread of the process (`Threads:` in `/proc/self/status`)
//! and sibling tests would add theirs.

#![cfg(target_os = "linux")]

use dlht_core::ShardedTable;
use dlht_net::{DlhtClient, ServerConfig};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
fn idle_admin_connections_add_no_threads() {
    let table = Arc::new(ShardedTable::with_capacity(4, 4_096));
    let server = dlht_net::bind_ephemeral(
        table,
        ServerConfig {
            workers: 1,
            admin_addr: Some("127.0.0.1:0".to_string()),
            ..ServerConfig::default()
        },
    );
    let admin_addr = server.admin_addr().expect("admin plane");
    let before = process_threads();

    let idle: Vec<TcpStream> = (0..32)
        .map(|_| TcpStream::connect(admin_addr).expect("connect admin"))
        .collect();
    // The probe connects after every idle one, so its answer means the
    // admin plane has accepted all of them.
    let mut probe = DlhtClient::connect(admin_addr).unwrap();
    probe
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    probe.ping().expect("admin PING");
    let after = process_threads();
    assert_eq!(
        after,
        before,
        "{} idle admin connections changed the thread count",
        idle.len()
    );

    let t = Instant::now();
    let counters = server.shutdown();
    assert!(
        t.elapsed() < Duration::from_secs(2),
        "shutdown with idle admin connections open took {:?}",
        t.elapsed()
    );
    assert_eq!(counters.connections, 0, "admin conns are counted apart");
    assert_eq!(counters.active, 0);
    drop(idle);
}
