//! Integration tests for the unified API redesign: the typed `Dlht<K, V>`
//! facade, reserved-key rejection through **every** entry point (typed
//! facade, `KvBackend` trait object, batch path), and an encode→decode
//! identity property test for the `Inline8` encoding.

use dlht::{
    impl_inline8_codec, Batch, BatchPolicy, Dlht, DlhtError, DlhtMap, Inline8, KvBackend, KvCodec,
    Request, Response, TypedBatch, TypedResponse,
};
use dlht_util::splitmix64 as splitmix;

const RESERVED: [u64; 2] = [u64::MAX, u64::MAX - 1];

/// Run `reqs` as one batch through `backend`'s engine.
fn run(backend: &dyn KvBackend, reqs: &[Request], policy: BatchPolicy) -> Vec<Response> {
    let mut batch = Batch::from(reqs);
    backend.engine().execute(&mut batch, policy);
    batch.into_responses()
}

// ---- reserved-key rejection through every entry point ----------------------

#[test]
fn reserved_keys_rejected_through_typed_facade() {
    let map: Dlht<u64, u64> = Dlht::with_capacity(64);
    for k in RESERVED {
        assert_eq!(
            map.insert(&k, &1),
            Err(DlhtError::ReservedKey),
            "insert {k}"
        );
        assert_eq!(
            map.upsert(&k, &1),
            Err(DlhtError::ReservedKey),
            "upsert {k}"
        );
        assert_eq!(map.get(&k), None, "get {k}");
        assert_eq!(map.remove(&k), None, "remove {k}");
        assert!(!map.contains(&k), "contains {k}");
    }
    assert!(map.is_empty());
    // Signed keys whose two's-complement encoding lands on the reserved
    // words are rejected the same way.
    let signed: Dlht<i64, u64> = Dlht::with_capacity(64);
    assert_eq!(signed.insert(&-1, &1), Err(DlhtError::ReservedKey));
    assert_eq!(signed.insert(&-2, &1), Err(DlhtError::ReservedKey));
    assert!(signed.insert(&-3, &1).unwrap());
}

#[test]
fn reserved_keys_rejected_through_trait_object() {
    let map = DlhtMap::with_capacity(64);
    let backend: &dyn KvBackend = &map;
    for k in RESERVED {
        assert_eq!(
            backend.insert(k, 1),
            Err(DlhtError::ReservedKey),
            "insert {k}"
        );
        assert_eq!(
            backend.upsert(k, 1),
            Err(DlhtError::ReservedKey),
            "upsert {k}"
        );
        assert_eq!(backend.get(k), None, "get {k}");
        assert_eq!(backend.put(k, 1), None, "put {k}");
        assert_eq!(backend.delete(k), None, "delete {k}");
    }
    assert!(backend.is_empty());
}

#[test]
fn reserved_keys_rejected_through_the_batch_path() {
    let map = DlhtMap::with_capacity(64);
    let backend: &dyn KvBackend = &map;
    for k in RESERVED {
        let out = run(
            backend,
            &[
                Request::Insert(k, 1),
                Request::Get(k),
                Request::Put(k, 2),
                Request::Delete(k),
            ],
            BatchPolicy::RunAll,
        );
        assert_eq!(
            out[0],
            Response::Inserted(Err(DlhtError::ReservedKey)),
            "{k}"
        );
        assert_eq!(out[1], Response::Value(None), "{k}");
        assert_eq!(out[2], Response::Updated(None), "{k}");
        assert_eq!(out[3], Response::Deleted(None), "{k}");
    }
    // With StopOnFailure, the reserved-key insert terminates the batch.
    let out = run(
        backend,
        &[Request::Insert(u64::MAX, 1), Request::Insert(7, 70)],
        BatchPolicy::StopOnFailure,
    );
    assert!(!out[0].succeeded());
    assert_eq!(out[1], Response::Skipped);
    assert_eq!(backend.get(7), None, "skipped request must not execute");
}

#[test]
fn reserved_keys_rejected_for_every_baseline_kind() {
    use dlht_baselines::MapKind;
    for kind in MapKind::all() {
        let map = kind.build(1_024);
        for k in RESERVED {
            assert!(
                map.insert(k, 1).is_err(),
                "{}: reserved key {k} must be rejected",
                kind.name()
            );
            assert_eq!(map.get(k), None, "{}", kind.name());
        }
    }
}

// ---- Inline8 encode→decode identity ---------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OrderId(u64);

impl Inline8 for OrderId {
    fn to_word(self) -> u64 {
        self.0
    }
    fn from_word(word: u64) -> Self {
        OrderId(word)
    }
}
impl_inline8_codec!(OrderId);

fn assert_roundtrip<T: Inline8 + PartialEq + std::fmt::Debug>(x: T) {
    assert_eq!(T::from_word(x.to_word()), x);
}

#[test]
fn inline8_roundtrip_property() {
    let mut rng = 0x1D8_u64;
    for _ in 0..10_000 {
        let w = splitmix(&mut rng);
        assert_roundtrip(w); // u64
        assert_roundtrip(w as i64); // i64
        assert_roundtrip(((w >> 32) as u32, w as u32)); // u32 pair
        assert_roundtrip(w.to_le_bytes()); // [u8; 8]
        assert_roundtrip(OrderId(w)); // newtype
                                      // Narrow types roundtrip from their truncated representation.
        assert_roundtrip(w as u32);
        assert_roundtrip(w as u32 as i32);
        assert_roundtrip(w as u16);
        assert_roundtrip(w as u8);
    }
    // Boundary values.
    for w in [0, 1, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 48) - 1] {
        assert_roundtrip(w);
        assert_roundtrip(w as i64);
        assert_roundtrip(OrderId(w));
    }
}

#[test]
fn inline8_word_and_bytes_encodings_agree() {
    // KvCodec's bytes path (used when an inline key is paired with an
    // out-of-line value) must encode exactly the slot word, little-endian.
    let mut rng = 0xC0DEC_u64;
    for _ in 0..1_000 {
        let w = splitmix(&mut rng);
        let mut buf = Vec::new();
        KvCodec::encode_bytes(&w, &mut buf);
        assert_eq!(buf, w.to_le_bytes());
        assert_eq!(<u64 as KvCodec>::decode_bytes(&buf), w);
        assert_eq!(KvCodec::encode_word(&w), Inline8::to_word(w));
    }
}

#[test]
fn newtype_keys_work_end_to_end() {
    let map: Dlht<OrderId, u64> = Dlht::with_capacity(256);
    assert_eq!(map.mode(), "inlined");
    for i in 0..100u64 {
        assert!(map.insert(&OrderId(i), &(i * 3)).unwrap());
    }
    assert_eq!(map.get(&OrderId(42)), Some(126));
    assert_eq!(
        map.insert(&OrderId(u64::MAX), &0),
        Err(DlhtError::ReservedKey),
        "newtype reserved words reject like raw u64"
    );
    assert_eq!(map.remove(&OrderId(42)), Some(126));
    assert_eq!(map.len(), 99);
}

// ---- the facade and the trait agree ---------------------------------------

#[test]
fn typed_inline_facade_matches_trait_view() {
    let typed: Dlht<u64, u64> = Dlht::with_capacity(256);
    typed.insert(&3, &33).unwrap();
    typed.upsert(&4, &44).unwrap();
    let backend: &dyn KvBackend = typed.inline_map().unwrap();
    assert_eq!(backend.get(3), Some(33));
    assert_eq!(backend.get(4), Some(44));
    assert_eq!(backend.len(), typed.len());
    let out = run(
        backend,
        &[Request::Get(3), Request::Get(4)],
        BatchPolicy::RunAll,
    );
    assert_eq!(out[0], Response::Value(Some(33)));
    assert_eq!(out[1], Response::Value(Some(44)));
}

// ---- typed batches through the facade --------------------------------------

#[test]
fn typed_batch_decodes_newtype_values() {
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Score(u32);
    impl Inline8 for Score {
        fn to_word(self) -> u64 {
            self.0 as u64
        }
        fn from_word(word: u64) -> Self {
            Score(word as u32)
        }
    }
    impl_inline8_codec!(Score);

    let map: Dlht<OrderId, Score> = Dlht::with_capacity(256);
    let mut batch: TypedBatch<OrderId, Score> = TypedBatch::with_capacity(3);
    for round in 0..5u64 {
        batch.clear();
        batch.push_insert(&OrderId(round), &Score(round as u32 * 10));
        batch.push_get(&OrderId(round));
        batch.push_put(&OrderId(round), &Score(1));
        map.execute(&mut batch, BatchPolicy::RunAll).unwrap();
        assert_eq!(batch.response(0), Some(TypedResponse::Inserted(Ok(true))));
        assert_eq!(
            batch.response(1),
            Some(TypedResponse::Value(Some(Score(round as u32 * 10))))
        );
        assert_eq!(
            batch.response(2),
            Some(TypedResponse::Updated(Some(Score(round as u32 * 10))))
        );
    }
    assert_eq!(map.len(), 5);
}

#[test]
fn get_many_into_matches_get_many_and_reuses_buffers() {
    let map: Dlht<u64, u64> = Dlht::with_capacity(1024);
    for k in 0..200u64 {
        map.insert(&k, &(k ^ 0xFF)).unwrap();
    }
    let keys: Vec<u64> = (0..256).collect();
    let alloc_free = map.get_many(&keys);
    let mut reused = Vec::new();
    for _ in 0..2 {
        map.get_many_into(&keys, &mut reused);
    }
    assert_eq!(alloc_free, reused);
    assert_eq!(reused.iter().filter(|v| v.is_some()).count(), 200);
}
