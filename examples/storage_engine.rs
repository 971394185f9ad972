//! Allocator mode as a database storage engine's primary index (§3.1 use
//! case 2): the typed facade for everyday rows, plus the advanced
//! namespace/pointer API for zero-copy reads.
//!
//! Run with: `cargo run --release --example storage_engine`

use dlht::alloc::AllocatorKind;
use dlht::{Dlht, DlhtAllocMap, DlhtConfig};

const USERS: u16 = 1; // namespace for the "users" table
const ORDERS: u16 = 2; // namespace for the "orders" table

fn main() {
    // Everyday path: the typed facade routes String -> Vec<u8> rows to the
    // Allocator mode automatically (variable-size records, epoch-reclaimed
    // deletes).
    let rows: Dlht<String, Vec<u8>> = Dlht::with_capacity(100_000);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let rows = &rows;
            s.spawn(move || {
                for i in 0..2_500u64 {
                    let id = t * 10_000 + i;
                    let row = format!("user-{id}:name=alice,age=30").into_bytes();
                    rows.insert(&format!("user/{id}"), &row).unwrap();
                }
            });
        }
    });
    println!("typed rows indexed: {}", rows.len());
    let got = rows.get(&"user/10001".to_string()).expect("row must exist");
    println!("user/10001 row = {} bytes", got.len());

    // Advanced path: the raw Allocator-mode map with namespaces and the
    // pointer API (no value copy on reads).
    let index = DlhtAllocMap::new(
        DlhtConfig::for_capacity(100_000)
            .with_variable_size(true)
            .with_namespaces(true),
        AllocatorKind::Pool.build(),
        0,
        0,
    );

    // Each worker thread opens its own session (it caches the thread's slot
    // in the table's reclamation registry).
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let index = &index;
            s.spawn(move || {
                let mut session = index.session();
                for i in 0..2_500u64 {
                    let id = t * 10_000 + i;
                    // Small row in "users", larger row in "orders"; same key
                    // bytes, different namespaces, no conflict.
                    let key = id.to_le_bytes();
                    let user_row = format!("user-{id}:name=alice,age=30");
                    let order_row = vec![id as u8; 256];
                    session.insert(USERS, &key, user_row.as_bytes()).unwrap();
                    session.insert(ORDERS, &key, &order_row).unwrap();
                    if i % 64 == 0 {
                        session.quiesce();
                    }
                }
            });
        }
    });
    println!("namespaced rows indexed: {}", index.len());

    // Point lookups with the pointer API (no value copy).
    let mut session = index.session();
    let key = 10_001u64.to_le_bytes();
    let name_len = session
        .get_with(USERS, &key, |row| row.len())
        .expect("user row must exist");
    let order_len = session
        .get_with(ORDERS, &key, |row| row.len())
        .expect("order row must exist");
    println!("user row = {name_len} bytes, order row = {order_len} bytes");

    // Deletes reclaim the index slot immediately; the record memory is freed
    // once no reader can reach it (`quiesce` frees it now).
    assert!(session.delete(ORDERS, &key));
    session.quiesce();
    println!(
        "after delete: order row present = {}",
        session.contains(ORDERS, &key)
    );
    println!("stats: {:?}", index.stats());
}
