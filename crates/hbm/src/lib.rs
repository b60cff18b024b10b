//! HBM2 DRAM model for the SpAtten reproduction.
//!
//! The paper attaches SpAtten to HBM2 with 16 channels of 32 GB/s each
//! (Table I), modelled with Ramulator. This crate is the Ramulator
//! substitute: a channel/row-level model that captures the two properties
//! SpAtten's evaluation depends on —
//!
//! 1. the **bandwidth ceiling** (512 GB/s total; 16 bytes/cycle/channel at
//!    2 GHz) that makes GPT-2 generation memory-bounded, and
//! 2. **per-event energy** (row activations vs. column reads) that makes
//!    DRAM ≈ 70 % of total power (Table II).
//!
//! The model is deterministic, with an open-page row-buffer policy. Its
//! reference semantics are per chunk: a request splits into
//! interleave-sized chunks, and each is one access to its channel's row,
//! in request order. Traffic arrives as [`Plane`]s — the token rows
//! cascade pruning leaves of one tensor plane, a plain request being a
//! one-row plane — and [`Hbm::enqueue`] places a whole plane in one walk
//! without queueing a chunk, reaching exactly the same [`DrainStats`]
//! (its docs say why). A property test checks it against a per-chunk
//! reference model on random plane and request streams.

pub mod address;
pub mod channel;
pub mod device;

pub use address::{AddressMap, DecodedAddress};
pub use channel::{Channel, RowBufferOutcome};
pub use device::{DrainStats, Hbm, HbmConfig, Plane, RequestKind};
