//! The typed facade: one generic [`Dlht<K, V>`] over every paper mode.
//!
//! The DLHT paper exposes three storage modes (§3.1): Inlined 8 B/8 B slots,
//! Allocator-mode out-of-line records, and the HashSet. This module maps
//! arbitrary Rust key/value types onto the right mode **at compile time**:
//!
//! * Types whose [`KvCodec::INLINE`] is `true` (u64, i64, u32 pairs, small
//!   newtypes — anything implementing the [`Inline8`] encoding) pack into the
//!   8-byte slot words of the Inlined [`DlhtMap`] path.
//! * Everything else (`String`, `Vec<u8>`, structs via the [`ByteCodec`]
//!   bytes encoding) goes to the Allocator mode ([`DlhtAllocMap`]) with
//!   variable-size records and epoch-reclaimed deletes.
//!
//! The pair `(K, V)` runs inlined only when **both** types are inline; a mixed
//! pair (say `u64 -> Vec<u8>`) uses the Allocator mode with the inline half
//! encoded through its bytes representation.
//!
//! ```
//! use dlht_core::Dlht;
//!
//! // Same generic code path, two very different storage modes:
//! let ids: Dlht<u64, u64> = Dlht::with_capacity(1024);          // Inlined
//! let docs: Dlht<String, Vec<u8>> = Dlht::with_capacity(1024);  // Allocator
//!
//! ids.insert(&7, &700).unwrap();
//! docs.insert(&"seven".to_string(), &vec![7u8; 32]).unwrap();
//!
//! assert_eq!(ids.get(&7), Some(700));
//! assert_eq!(docs.get(&"seven".to_string()), Some(vec![7u8; 32]));
//! ```
//!
//! ## Reserved keys
//!
//! The Inlined path inherits DLHT's two reserved transfer keys: an inline key
//! encoding to `u64::MAX` or `u64::MAX - 1` is rejected with
//! [`DlhtError::ReservedKey`]. The Allocator path has no reserved keys (its
//! slot words are fingerprints that avoid the reserved range internally).

use crate::alloc_map::DlhtAllocMap;
use crate::batch::{Batch, BatchPolicy, Response};
use crate::config::DlhtConfig;
use crate::error::DlhtError;
use crate::stats::TableStats;
use crate::table::DlhtMap;
use std::cell::RefCell;
use std::marker::PhantomData;

thread_local! {
    /// Scratch batch reused by [`Dlht::get_many_into`] so it allocates
    /// nothing in steady state.
    static GET_MANY_SCRATCH: RefCell<Batch> = RefCell::new(Batch::new());
}

/// The inline-mode batched lookup: fill the thread-local scratch batch with
/// Gets for `keys`, run it on `map`, and decode the value words into `out`
/// (cleared first, capacity kept). A user codec that re-enters a batched
/// lookup from `encode`/`decode` would find the scratch borrowed; fall back
/// to a local batch rather than panicking on the RefCell.
fn get_many_inline<K: KvCodec, V: KvCodec>(map: &DlhtMap, keys: &[K], out: &mut Vec<Option<V>>) {
    out.clear();
    out.reserve(keys.len());
    let run = |batch: &mut Batch, out: &mut Vec<Option<V>>| {
        batch.clear();
        for k in keys {
            batch.push_get(k.encode_word());
        }
        map.session().execute(batch, BatchPolicy::RunAll);
        out.extend(batch.responses().iter().map(|r| match r {
            Response::Value(v) => v.map(V::decode_word),
            _ => None,
        }));
    };
    GET_MANY_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut batch) => run(&mut batch, out),
        Err(_) => run(&mut Batch::with_capacity(keys.len()), out),
    })
}

/// Lossless encoding of a type into the 8-byte inline slot word.
///
/// Implement this for small newtypes to route them through the Inlined mode
/// (then wire them into the facade with [`crate::impl_inline8_codec!`]):
///
/// ```
/// use dlht_core::{impl_inline8_codec, Dlht, Inline8};
///
/// #[derive(Clone, Copy, PartialEq, Debug)]
/// struct UserId(u64);
///
/// impl Inline8 for UserId {
///     fn to_word(self) -> u64 { self.0 }
///     fn from_word(word: u64) -> Self { UserId(word) }
/// }
/// impl_inline8_codec!(UserId);
///
/// let map: Dlht<UserId, u64> = Dlht::with_capacity(64);
/// map.insert(&UserId(9), &90).unwrap();
/// assert_eq!(map.get(&UserId(9)), Some(90));
/// ```
pub trait Inline8: Copy {
    /// Encode into a slot word.
    fn to_word(self) -> u64;
    /// Decode from a slot word. Must satisfy
    /// `from_word(x.to_word()) == x` for every `x`.
    fn from_word(word: u64) -> Self;
}

impl Inline8 for u64 {
    fn to_word(self) -> u64 {
        self
    }
    fn from_word(word: u64) -> Self {
        word
    }
}

impl Inline8 for i64 {
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(word: u64) -> Self {
        word as i64
    }
}

impl Inline8 for u32 {
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(word: u64) -> Self {
        word as u32
    }
}

impl Inline8 for i32 {
    fn to_word(self) -> u64 {
        self as u32 as u64
    }
    fn from_word(word: u64) -> Self {
        word as u32 as i32
    }
}

impl Inline8 for u16 {
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(word: u64) -> Self {
        word as u16
    }
}

impl Inline8 for u8 {
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(word: u64) -> Self {
        word as u8
    }
}

impl Inline8 for (u32, u32) {
    fn to_word(self) -> u64 {
        ((self.0 as u64) << 32) | self.1 as u64
    }
    fn from_word(word: u64) -> Self {
        ((word >> 32) as u32, word as u32)
    }
}

impl Inline8 for [u8; 8] {
    fn to_word(self) -> u64 {
        u64::from_le_bytes(self)
    }
    fn from_word(word: u64) -> Self {
        word.to_le_bytes()
    }
}

/// Bytes encoding for out-of-line (Allocator-mode) keys and values.
///
/// `decode(e)` must reproduce the value for any `e` produced by `encode`.
pub trait ByteCodec: Sized {
    /// Append the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decode from an encoding produced by [`ByteCodec::encode`].
    fn decode(bytes: &[u8]) -> Self;
}

impl ByteCodec for Vec<u8> {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self);
    }
    fn decode(bytes: &[u8]) -> Self {
        bytes.to_vec()
    }
}

impl ByteCodec for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(bytes: &[u8]) -> Self {
        String::from_utf8_lossy(bytes).into_owned()
    }
}

impl ByteCodec for Box<[u8]> {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self);
    }
    fn decode(bytes: &[u8]) -> Self {
        bytes.to_vec().into_boxed_slice()
    }
}

/// The unified codec the facade dispatches on. `INLINE` decides the storage
/// mode at compile time; the word methods serve the Inlined path and the
/// bytes methods the Allocator path (both are total so mixed inline/bytes
/// pairs work).
///
/// Implemented for the primitive inline types and for the standard byte
/// containers; implement [`Inline8`] + [`crate::impl_inline8_codec!`] or
/// [`ByteCodec`] + [`crate::impl_bytes_codec!`] to add your own.
pub trait KvCodec: Send + Sync + 'static + Sized {
    /// Whether this type packs losslessly into the 8-byte slot word.
    const INLINE: bool;

    /// Encode into a slot word (Inlined path; unreachable for bytes types).
    fn encode_word(&self) -> u64 {
        unreachable!("encode_word called on a non-inline type")
    }

    /// Decode from a slot word (Inlined path; unreachable for bytes types).
    fn decode_word(_word: u64) -> Self {
        unreachable!("decode_word called on a non-inline type")
    }

    /// Append the bytes encoding to `buf` (Allocator path).
    fn encode_bytes(&self, buf: &mut Vec<u8>);

    /// Decode from the bytes encoding (Allocator path).
    fn decode_bytes(bytes: &[u8]) -> Self;
}

/// Wire an [`Inline8`] type into the typed facade as an inline codec.
#[macro_export]
macro_rules! impl_inline8_codec {
    ($($t:ty),+ $(,)?) => {$(
        impl $crate::KvCodec for $t {
            const INLINE: bool = true;
            fn encode_word(&self) -> u64 {
                $crate::Inline8::to_word(*self)
            }
            fn decode_word(word: u64) -> Self {
                <$t as $crate::Inline8>::from_word(word)
            }
            fn encode_bytes(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&$crate::Inline8::to_word(*self).to_le_bytes());
            }
            fn decode_bytes(bytes: &[u8]) -> Self {
                let mut word = [0u8; 8];
                word.copy_from_slice(&bytes[..8]);
                <$t as $crate::Inline8>::from_word(u64::from_le_bytes(word))
            }
        }
    )+};
}

/// Wire a [`ByteCodec`] type into the typed facade as an out-of-line codec.
#[macro_export]
macro_rules! impl_bytes_codec {
    ($($t:ty),+ $(,)?) => {$(
        impl $crate::KvCodec for $t {
            const INLINE: bool = false;
            fn encode_bytes(&self, buf: &mut Vec<u8>) {
                $crate::ByteCodec::encode(self, buf)
            }
            fn decode_bytes(bytes: &[u8]) -> Self {
                <$t as $crate::ByteCodec>::decode(bytes)
            }
        }
    )+};
}

impl_inline8_codec!(u64, i64, u32, i32, u16, u8, (u32, u32), [u8; 8]);
impl_bytes_codec!(Vec<u8>, String, Box<[u8]>);

enum Inner {
    /// Inlined mode (§3.1 mode 1): both halves live in the slot words.
    Inline(DlhtMap),
    /// Allocator mode (§3.1 mode 2): out-of-line variable-size records.
    Alloc(DlhtAllocMap),
}

/// Typed concurrent hashtable over any `K: KvCodec, V: KvCodec`, backed by
/// the paper mode the types call for (see the module docs).
///
/// All operations take `&self` and are thread-safe. On the Allocator path
/// each call opens a short-lived [`crate::AllocSession`] (one thread-local
/// slot lookup), and each write frees what is freeable before it returns;
/// long probe loops that want to amortize that cost can drop to
/// [`Dlht::alloc_map`] and keep a session directly.
pub struct Dlht<K: KvCodec, V: KvCodec> {
    inner: Inner,
    _marker: PhantomData<fn(K, V)>,
}

impl<K: KvCodec, V: KvCodec> Dlht<K, V> {
    /// Whether this instantiation runs in the Inlined mode.
    pub const INLINE: bool = K::INLINE && V::INLINE;

    /// Create a table sized to hold about `keys` pairs before its first
    /// resize.
    pub fn with_capacity(keys: usize) -> Self {
        Self::with_config(DlhtConfig::for_capacity(keys))
    }

    /// Create a table from an explicit configuration. The Allocator path
    /// forces `variable_size` on (every record carries its own lengths).
    pub fn with_config(config: DlhtConfig) -> Self {
        let inner = if Self::INLINE {
            Inner::Inline(DlhtMap::with_config(config))
        } else {
            Inner::Alloc(DlhtAllocMap::new(
                config.with_variable_size(true),
                dlht_alloc::AllocatorKind::Pool.build(),
                0,
                0,
            ))
        };
        Dlht {
            inner,
            _marker: PhantomData,
        }
    }

    /// The storage mode selected for this `(K, V)` pair, for diagnostics.
    pub fn mode(&self) -> &'static str {
        if Self::INLINE {
            "inlined"
        } else {
            "allocator"
        }
    }

    fn bytes_of<T: KvCodec>(item: &T) -> Vec<u8> {
        let mut buf = Vec::new();
        item.encode_bytes(&mut buf);
        buf
    }

    /// Look up `key`.
    pub fn get(&self, key: &K) -> Option<V> {
        match &self.inner {
            Inner::Inline(map) => map.get(key.encode_word()).map(V::decode_word),
            Inner::Alloc(map) => {
                let kb = Self::bytes_of(key);
                let mut s = map.session();
                s.get_with(0, &kb, V::decode_bytes)
            }
        }
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        match &self.inner {
            Inner::Inline(map) => map.contains(key.encode_word()),
            Inner::Alloc(map) => {
                let kb = Self::bytes_of(key);
                map.session().contains(0, &kb)
            }
        }
    }

    /// Insert `key -> value`; returns `Ok(false)` (without overwriting) when
    /// the key already exists. Inline keys encoding to the reserved transfer
    /// words fail with [`DlhtError::ReservedKey`].
    pub fn insert(&self, key: &K, value: &V) -> Result<bool, DlhtError> {
        match &self.inner {
            Inner::Inline(map) => Ok(map
                .insert(key.encode_word(), value.encode_word())?
                .inserted()),
            Inner::Alloc(map) => {
                let kb = Self::bytes_of(key);
                let vb = Self::bytes_of(value);
                let mut s = map.session();
                let r = s.insert(0, &kb, &vb);
                s.quiesce();
                r
            }
        }
    }

    /// Update an existing key; returns the previous value, or `None` when the
    /// key is absent. On the Allocator path the new record is published with
    /// one pointer swap ([`crate::AllocSession::replace_with`]), so concurrent
    /// readers see the old or the new value, never a missing key.
    pub fn put(&self, key: &K, value: &V) -> Result<Option<V>, DlhtError> {
        match &self.inner {
            Inner::Inline(map) => Ok(map
                .put(key.encode_word(), value.encode_word())
                .map(V::decode_word)),
            Inner::Alloc(map) => {
                let kb = Self::bytes_of(key);
                let vb = Self::bytes_of(value);
                let mut s = map.session();
                let r = s.replace_with(0, &kb, &vb, V::decode_bytes);
                s.quiesce();
                r
            }
        }
    }

    /// Insert if absent, otherwise update; returns the previous value on
    /// update. Insert errors (table full, reserved key) are propagated; races
    /// with concurrent writers are retried as on the Inline path.
    pub fn upsert(&self, key: &K, value: &V) -> Result<Option<V>, DlhtError> {
        match &self.inner {
            Inner::Inline(map) => Ok(map
                .upsert(key.encode_word(), value.encode_word())?
                .map(V::decode_word)),
            Inner::Alloc(map) => {
                let kb = Self::bytes_of(key);
                let vb = Self::bytes_of(value);
                let mut s = map.session();
                let r = loop {
                    match s.replace_with(0, &kb, &vb, V::decode_bytes) {
                        Ok(None) => {}
                        updated => break updated,
                    }
                    match s.insert(0, &kb, &vb) {
                        Ok(true) => break Ok(None),
                        // A concurrent writer inserted the key first: update
                        // their value instead.
                        Ok(false) => continue,
                        Err(e) => break Err(e),
                    }
                };
                s.quiesce();
                r
            }
        }
    }

    /// Remove `key`, returning its value. On the Inlined path the slot is
    /// immediately reusable; on the Allocator path the record is freed once
    /// no reader can reach it.
    pub fn remove(&self, key: &K) -> Option<V> {
        match &self.inner {
            Inner::Inline(map) => map.delete(key.encode_word()).map(V::decode_word),
            Inner::Alloc(map) => {
                let kb = Self::bytes_of(key);
                let mut s = map.session();
                let prev = s.remove_with(0, &kb, V::decode_bytes);
                s.quiesce();
                prev
            }
        }
    }

    /// Batched lookup. On the Inlined path the keys go through the
    /// order-preserving prefetched batch API (§3.3); on the Allocator path a
    /// prefetch sweep over every key's bin precedes the in-order lookups of
    /// one session. Allocates the result vector; hot loops should pass a
    /// reused buffer to [`Dlht::get_many_into`] instead.
    pub fn get_many(&self, keys: &[K]) -> Vec<Option<V>> {
        let mut out = Vec::with_capacity(keys.len());
        self.get_many_into(keys, &mut out);
        out
    }

    /// [`Dlht::get_many`] into a caller-provided buffer (`out` is cleared
    /// first, its capacity is kept). On the Inlined path the request batch
    /// itself comes from a thread-local scratch [`Batch`], so steady-state
    /// calls perform no heap allocation beyond what `out` needs the first
    /// time.
    pub fn get_many_into(&self, keys: &[K], out: &mut Vec<Option<V>>) {
        match &self.inner {
            Inner::Inline(map) => get_many_inline(map, keys, out),
            Inner::Alloc(map) => {
                out.clear();
                out.reserve(keys.len());
                // Encode every key once into a flat buffer, prefetch-sweep
                // the bins, then look up in order — the §3.3 overlap pattern
                // applied to out-of-line records.
                let mut flat = Vec::new();
                let mut ranges = Vec::with_capacity(keys.len());
                for k in keys {
                    let start = flat.len();
                    k.encode_bytes(&mut flat);
                    ranges.push(start..flat.len());
                }
                let mut s = map.session();
                for r in &ranges {
                    s.prefetch(0, &flat[r.clone()]);
                }
                for r in &ranges {
                    out.push(s.get_with(0, &flat[r.clone()], V::decode_bytes));
                }
            }
        }
    }

    /// Execute a typed batch (see [`TypedBatch`]) through the
    /// order-preserving prefetched batch path.
    ///
    /// Only available on Inlined-mode instantiations — the Allocator mode
    /// offers no word-encoded batch path (§3.2.4 exposes the pointer API
    /// instead) and reports [`DlhtError::UnsupportedInMode`].
    pub fn execute(
        &self,
        batch: &mut TypedBatch<K, V>,
        policy: BatchPolicy,
    ) -> Result<(), DlhtError> {
        match &self.inner {
            Inner::Inline(map) => {
                map.session().execute(&mut batch.raw, policy);
                Ok(())
            }
            Inner::Alloc(_) => Err(DlhtError::UnsupportedInMode),
        }
    }

    /// Number of live keys (linear scan).
    pub fn len(&self) -> usize {
        match &self.inner {
            Inner::Inline(map) => map.len(),
            Inner::Alloc(map) => map.len(),
        }
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Structural statistics of the index.
    pub fn stats(&self) -> TableStats {
        match &self.inner {
            Inner::Inline(map) => map.stats(),
            Inner::Alloc(map) => map.stats(),
        }
    }

    /// The underlying Inlined-mode map, when this instantiation is inlined.
    pub fn inline_map(&self) -> Option<&DlhtMap> {
        match &self.inner {
            Inner::Inline(map) => Some(map),
            Inner::Alloc(_) => None,
        }
    }

    /// The underlying Allocator-mode map, when this instantiation is
    /// out-of-line (e.g. to open a long-lived [`crate::AllocSession`]).
    pub fn alloc_map(&self) -> Option<&DlhtAllocMap> {
        match &self.inner {
            Inner::Inline(_) => None,
            Inner::Alloc(map) => Some(map),
        }
    }
}

/// A typed view of one executed batch slot — [`Response`] with the value
/// word decoded back to `V`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypedResponse<V> {
    /// Result of a `Get`.
    Value(Option<V>),
    /// Result of a `Put`: the previous value if the key existed.
    Updated(Option<V>),
    /// Result of an `Insert`: whether the key was inserted.
    Inserted(Result<bool, DlhtError>),
    /// Result of a `Delete`: the removed value if the key existed.
    Deleted(Option<V>),
    /// Skipped under [`BatchPolicy::StopOnFailure`]; had no effect.
    Skipped,
}

/// A reusable typed batch builder over [`Dlht<K, V>`]: push typed requests,
/// execute through [`Dlht::execute`], and read responses decoded back to `V`.
///
/// Wraps a word-encoded [`Batch`], so it shares its zero-allocation reuse
/// property: [`TypedBatch::clear`] keeps both buffers' capacity.
///
/// Requests are word-encoded at push time, so `TypedBatch` serves **inline**
/// codecs (`K::INLINE && V::INLINE`); pushing a non-inline key or value
/// panics (its codec has no word encoding), and executing against an
/// Allocator-mode table reports [`DlhtError::UnsupportedInMode`].
///
/// ```
/// use dlht_core::{BatchPolicy, Dlht, TypedBatch, TypedResponse};
///
/// let map: Dlht<u64, u64> = Dlht::with_capacity(256);
/// let mut batch: TypedBatch<u64, u64> = TypedBatch::new();
/// batch.push_insert(&1, &100);
/// batch.push_get(&1);
/// map.execute(&mut batch, BatchPolicy::RunAll).unwrap();
/// assert_eq!(batch.response(1), Some(TypedResponse::Value(Some(100))));
/// ```
pub struct TypedBatch<K: KvCodec, V: KvCodec> {
    raw: Batch,
    _marker: PhantomData<fn(K, V)>,
}

impl<K: KvCodec, V: KvCodec> TypedBatch<K, V> {
    /// Create an empty typed batch.
    pub fn new() -> Self {
        TypedBatch {
            raw: Batch::new(),
            _marker: PhantomData,
        }
    }

    /// Create an empty typed batch with room for `capacity` requests.
    pub fn with_capacity(capacity: usize) -> Self {
        TypedBatch {
            raw: Batch::with_capacity(capacity),
            _marker: PhantomData,
        }
    }

    /// Queue a lookup of `key`.
    pub fn push_get(&mut self, key: &K) {
        self.raw.push_get(key.encode_word());
    }

    /// Queue an update of `key` to `value`.
    pub fn push_put(&mut self, key: &K, value: &V) {
        self.raw.push_put(key.encode_word(), value.encode_word());
    }

    /// Queue an insert of `key -> value`.
    pub fn push_insert(&mut self, key: &K, value: &V) {
        self.raw.push_insert(key.encode_word(), value.encode_word());
    }

    /// Queue a delete of `key`.
    pub fn push_delete(&mut self, key: &K) {
        self.raw.push_delete(key.encode_word());
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// Whether no requests are queued.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Drop all requests and responses, keeping both allocations.
    pub fn clear(&mut self) {
        self.raw.clear();
    }

    /// The decoded response in slot `i` of the most recent execution.
    pub fn response(&self, i: usize) -> Option<TypedResponse<V>> {
        self.raw.responses().get(i).map(Self::decode)
    }

    /// Iterate over the decoded responses of the most recent execution, in
    /// submission order.
    pub fn responses(&self) -> impl Iterator<Item = TypedResponse<V>> + '_ {
        self.raw.responses().iter().map(Self::decode)
    }

    /// The word-encoded batch underneath (advanced use).
    pub fn raw(&self) -> &Batch {
        &self.raw
    }

    fn decode(r: &Response) -> TypedResponse<V> {
        match *r {
            Response::Value(v) => TypedResponse::Value(v.map(V::decode_word)),
            Response::Updated(v) => TypedResponse::Updated(v.map(V::decode_word)),
            Response::Inserted(r) => TypedResponse::Inserted(r.map(|o| o.inserted())),
            Response::Deleted(v) => TypedResponse::Deleted(v.map(V::decode_word)),
            Response::Skipped => TypedResponse::Skipped,
        }
    }
}

impl<K: KvCodec, V: KvCodec> Default for TypedBatch<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn mode_selection_is_type_driven() {
        assert!(Dlht::<u64, u64>::INLINE);
        assert!(Dlht::<i64, u32>::INLINE);
        assert!(Dlht::<(u32, u32), [u8; 8]>::INLINE);
        assert!(!Dlht::<String, Vec<u8>>::INLINE);
        assert!(!Dlht::<u64, Vec<u8>>::INLINE, "mixed pairs go out of line");
        assert!(!Dlht::<String, u64>::INLINE);
    }

    #[test]
    fn inline_pair_roundtrip() {
        let map: Dlht<u64, u64> = Dlht::with_capacity(256);
        assert_eq!(map.mode(), "inlined");
        assert!(map.insert(&1, &10).unwrap());
        assert!(!map.insert(&1, &11).unwrap());
        assert_eq!(map.get(&1), Some(10));
        assert_eq!(map.put(&1, &12).unwrap(), Some(10));
        assert_eq!(map.upsert(&2, &20).unwrap(), None);
        assert_eq!(map.upsert(&2, &21).unwrap(), Some(20));
        assert_eq!(map.remove(&1), Some(12));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn bytes_pair_roundtrip() {
        let map: Dlht<String, Vec<u8>> = Dlht::with_capacity(256);
        assert_eq!(map.mode(), "allocator");
        let k = "hello".to_string();
        assert!(map.insert(&k, &vec![1, 2, 3]).unwrap());
        assert!(!map.insert(&k, &vec![9]).unwrap());
        assert_eq!(map.get(&k), Some(vec![1, 2, 3]));
        assert_eq!(map.put(&k, &vec![4, 5]).unwrap(), Some(vec![1, 2, 3]));
        assert_eq!(map.get(&k), Some(vec![4, 5]));
        assert_eq!(map.remove(&k), Some(vec![4, 5]));
        assert!(map.is_empty());
        assert_eq!(map.put(&k, &vec![0]).unwrap(), None, "put never inserts");
    }

    #[test]
    fn mixed_pair_uses_allocator_mode() {
        let map: Dlht<u64, Vec<u8>> = Dlht::with_capacity(128);
        assert_eq!(map.mode(), "allocator");
        for i in 0..200u64 {
            assert!(map.insert(&i, &vec![i as u8; 16]).unwrap());
        }
        for i in 0..200u64 {
            assert_eq!(map.get(&i), Some(vec![i as u8; 16]));
        }
        assert_eq!(map.len(), 200);
        // Inline-encodable keys on the allocator path may use any value,
        // including the words reserved by the Inlined mode.
        assert!(map.insert(&u64::MAX, &vec![1]).unwrap());
        assert_eq!(map.get(&u64::MAX), Some(vec![1]));
    }

    #[test]
    fn reserved_inline_keys_are_rejected() {
        let map: Dlht<u64, u64> = Dlht::with_capacity(64);
        assert_eq!(map.insert(&u64::MAX, &1), Err(DlhtError::ReservedKey));
        assert_eq!(map.insert(&(u64::MAX - 1), &1), Err(DlhtError::ReservedKey));
        assert_eq!(map.upsert(&u64::MAX, &1), Err(DlhtError::ReservedKey));
        assert_eq!(map.get(&u64::MAX), None);
        // i64: -1 and -2 encode to the reserved words.
        let signed: Dlht<i64, u64> = Dlht::with_capacity(64);
        assert_eq!(signed.insert(&-1, &1), Err(DlhtError::ReservedKey));
        assert_eq!(signed.insert(&-2, &1), Err(DlhtError::ReservedKey));
        assert!(signed.insert(&-3, &1).unwrap());
    }

    #[test]
    fn typed_batch_roundtrip_and_reuse() {
        let map: Dlht<u64, u64> = Dlht::with_capacity(256);
        let mut batch: TypedBatch<u64, u64> = TypedBatch::with_capacity(4);
        for round in 0..8u64 {
            batch.clear();
            batch.push_insert(&round, &(round * 10));
            batch.push_get(&round);
            batch.push_put(&round, &(round * 10 + 1));
            batch.push_delete(&round);
            map.execute(&mut batch, BatchPolicy::RunAll).unwrap();
            let out: Vec<_> = batch.responses().collect();
            assert_eq!(out[0], TypedResponse::Inserted(Ok(true)));
            assert_eq!(out[1], TypedResponse::Value(Some(round * 10)));
            assert_eq!(out[2], TypedResponse::Updated(Some(round * 10)));
            assert_eq!(out[3], TypedResponse::Deleted(Some(round * 10 + 1)));
        }
        assert!(map.is_empty());
    }

    #[test]
    fn typed_batch_stop_on_failure_marks_skipped() {
        let map: Dlht<u64, u64> = Dlht::with_capacity(64);
        let mut batch: TypedBatch<u64, u64> = TypedBatch::new();
        batch.push_insert(&1, &10);
        batch.push_insert(&1, &11); // duplicate -> failure
        batch.push_insert(&2, &20);
        map.execute(&mut batch, BatchPolicy::StopOnFailure).unwrap();
        assert_eq!(batch.response(0), Some(TypedResponse::Inserted(Ok(true))));
        assert_eq!(batch.response(1), Some(TypedResponse::Inserted(Ok(false))));
        assert_eq!(batch.response(2), Some(TypedResponse::Skipped));
        assert_eq!(map.get(&2), None, "skipped insert must not execute");
    }

    #[test]
    fn typed_batch_is_unsupported_in_allocator_mode() {
        // String -> u64 runs in Allocator mode, where the word-encoded batch
        // path does not exist. An empty batch never touches the key codec, so
        // this exercises exactly the mode check.
        let alloc: Dlht<String, u64> = Dlht::with_capacity(64);
        assert_eq!(alloc.mode(), "allocator");
        let mut batch: TypedBatch<String, u64> = TypedBatch::new();
        assert_eq!(
            alloc.execute(&mut batch, BatchPolicy::RunAll),
            Err(DlhtError::UnsupportedInMode)
        );
    }

    #[test]
    fn get_many_into_reuses_caller_buffer() {
        let inline: Dlht<u64, u64> = Dlht::with_capacity(512);
        for i in 0..100u64 {
            inline.insert(&i, &(i + 1)).unwrap();
        }
        let keys: Vec<u64> = (0..128).collect();
        let mut out = Vec::new();
        for _ in 0..3 {
            inline.get_many_into(&keys, &mut out);
            assert_eq!(out.len(), 128);
            for (i, v) in out.iter().enumerate() {
                let expect = if i < 100 { Some(i as u64 + 1) } else { None };
                assert_eq!(*v, expect);
            }
        }

        // Allocator path with the prefetch sweep.
        let bytes: Dlht<String, Vec<u8>> = Dlht::with_capacity(64);
        bytes.insert(&"x".to_string(), &vec![9]).unwrap();
        let mut bout = Vec::new();
        bytes.get_many_into(&["x".to_string(), "y".to_string()], &mut bout);
        assert_eq!(bout, vec![Some(vec![9]), None]);
    }

    #[test]
    fn get_many_batches_inline_and_alloc() {
        let inline: Dlht<u64, u64> = Dlht::with_capacity(256);
        for i in 0..64u64 {
            inline.insert(&i, &(i * 2)).unwrap();
        }
        let keys: Vec<u64> = (0..128).collect();
        let vals = inline.get_many(&keys);
        for (i, v) in vals.iter().enumerate() {
            let expect = if i < 64 { Some(i as u64 * 2) } else { None };
            assert_eq!(*v, expect);
        }

        let bytes: Dlht<String, Vec<u8>> = Dlht::with_capacity(64);
        bytes.insert(&"a".to_string(), &vec![1]).unwrap();
        let out = bytes.get_many(&["a".to_string(), "b".to_string()]);
        assert_eq!(out, vec![Some(vec![1]), None]);
    }

    #[test]
    fn concurrent_typed_access_both_modes() {
        let inline: Dlht<u64, u64> = Dlht::with_capacity(20_000);
        let bytes: Dlht<String, Vec<u8>> = Dlht::with_capacity(20_000);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let inline = &inline;
                let bytes = &bytes;
                s.spawn(move || {
                    for i in 0..500u64 {
                        let k = t * 1_000_000 + i;
                        inline.insert(&k, &i).unwrap();
                        bytes.insert(&format!("k-{k}"), &vec![t as u8; 8]).unwrap();
                    }
                });
            }
        });
        assert_eq!(inline.len(), 2_000);
        assert_eq!(bytes.len(), 2_000);
        assert_eq!(bytes.get(&"k-1000005".to_string()), Some(vec![1u8; 8]));
    }
}
